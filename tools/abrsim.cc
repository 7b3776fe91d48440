// abrsim: command-line front end to the adaptive block rearrangement
// simulator.
//
//   abrsim specs
//   abrsim onoff  [--disk=toshiba|fujitsu] [--workload=system|users]
//                 [--days=N] [--policy=organpipe|interleaved|serial]
//                 [--blocks=N] [--cylinders=N] [--scheduler=scan|fcfs|
//                 sstf|clook] [--seed=N] [--decay=F] [--replicas=R]
//                 [--jobs=N] [--no-incremental] [--shards=S]
//                 [--epoch=<minutes>|auto]
//   abrsim sweep  [--disk=...] [--workload=...] [--seed=N]
//                 [--blocks-list=a,b,c,...] [--jobs=N]
//   abrsim policy [--disk=...] [--workload=...] [--days=N] [--seed=N]
//                 [--jobs=N]
//   abrsim crashday [--fault-seed=N] [--crash-points=N] [--replicas=R]
//                 [--jobs=N] [--quick] [--no-incremental]
//   abrsim onoff    --array=raid0:N|raid1:N [--chunk=C] [--scrub=N]
//                 [--kill-member[=M]] [--jobs=N]
//   abrsim crashday --array=raid1:N [--kill-member[=M]] [--pairs=P]
//                 [--jobs=N] [--quick]
//
// Every run prints paper-style tables on stdout.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "array/array_harness.h"
#include "core/array_day.h"
#include "core/experiment.h"
#include "core/onoff.h"
#include "core/parallel_runner.h"
#include "fault/crash_harness.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/trace_stats.h"

using namespace abr;

namespace {

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Parses a whole decimal integer: false on an empty string, any trailing
/// character, or overflow.
bool ParseInt(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

/// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", arg);
        std::exit(2);
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "true";
      } else {
        values_[std::string(arg + 2, eq)] = eq + 1;
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) {
    used_.push_back(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// Integer flag in [lo, hi]. A value that is not a whole decimal
  /// integer in that range ends the run with a one-line error (exit 2).
  std::int64_t GetInt(const std::string& key, std::int64_t fallback,
                      std::int64_t lo, std::int64_t hi) {
    const std::string v = Get(key, "");
    if (v.empty()) return fallback;
    std::int64_t n = 0;
    if (!ParseInt(v, &n)) {
      std::fprintf(stderr, "bad --%s=%s (want an integer)\n", key.c_str(),
                   v.c_str());
      std::exit(2);
    }
    if (n < lo || n > hi) {
      std::fprintf(stderr, "--%s=%s out of range (want %lld..%lld)\n",
                   key.c_str(), v.c_str(), static_cast<long long>(lo),
                   static_cast<long long>(hi));
      std::exit(2);
    }
    return n;
  }

  /// Count flag: an integer in [lo, INT32_MAX].
  std::int32_t GetCount(const std::string& key, std::int32_t fallback,
                        std::int32_t lo) {
    return static_cast<std::int32_t>(GetInt(key, fallback, lo, kInt32Max));
  }

  /// Seed flag: any 64-bit integer, reinterpreted unsigned.
  std::uint64_t GetSeed(const std::string& key, std::uint64_t fallback) {
    return static_cast<std::uint64_t>(GetInt(
        key, static_cast<std::int64_t>(fallback), kInt64Min, kInt64Max));
  }

  /// Real flag in [lo, hi). A value that is not a whole decimal number in
  /// that range ends the run with a one-line error (exit 2).
  double GetDouble(const std::string& key, double fallback, double lo,
                   double hi) {
    const std::string v = Get(key, "");
    if (v.empty()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (errno == ERANGE || end != v.c_str() + v.size()) {
      std::fprintf(stderr, "bad --%s=%s (want a number)\n", key.c_str(),
                   v.c_str());
      std::exit(2);
    }
    if (!(d >= lo && d < hi)) {  // NaN fails too
      std::fprintf(stderr, "--%s=%s out of range (want [%g, %g))\n",
                   key.c_str(), v.c_str(), lo, hi);
      std::exit(2);
    }
    return d;
  }

  /// True if the flag was given at all (with or without a value). Marks it
  /// used, so callers can reject flag combinations with a specific message
  /// instead of the generic unknown-flag error.
  bool Has(const std::string& key) {
    used_.push_back(key);
    return values_.count(key) != 0;
  }

  /// Errors out on flags nobody consumed (typo protection).
  void CheckAllUsed() const {
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (const std::string& u : used_) {
        if (u == key) found = true;
      }
      if (!found) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> used_;
};

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

core::ExperimentConfig BuildConfig(Flags& flags) {
  const std::string disk = flags.Get("disk", "toshiba");
  const std::string workload = flags.Get("workload", "system");
  core::ExperimentConfig config;
  if (disk == "toshiba") {
    config = workload == "users" ? core::ExperimentConfig::ToshibaUsers()
                                 : core::ExperimentConfig::ToshibaSystem();
  } else if (disk == "fujitsu") {
    config = workload == "users" ? core::ExperimentConfig::FujitsuUsers()
                                 : core::ExperimentConfig::FujitsuSystem();
  } else {
    std::fprintf(stderr, "unknown --disk=%s\n", disk.c_str());
    std::exit(2);
  }
  if (workload != "system" && workload != "users") {
    std::fprintf(stderr, "unknown --workload=%s\n", workload.c_str());
    std::exit(2);
  }

  config.reserved_cylinders =
      flags.GetCount("cylinders", config.reserved_cylinders, 0);
  config.rearrange_blocks =
      flags.GetCount("blocks", config.rearrange_blocks, 1);
  config.seed = flags.GetSeed("seed", 0xAB12);
  config.system.count_decay = flags.GetDouble("decay", 0.0, 0.0, 1.0);

  const std::string policy = flags.Get("policy", "organpipe");
  if (policy == "organpipe") {
    config.system.policy = placement::PolicyKind::kOrganPipe;
  } else if (policy == "interleaved") {
    config.system.policy = placement::PolicyKind::kInterleaved;
  } else if (policy == "serial") {
    config.system.policy = placement::PolicyKind::kSerial;
  } else {
    std::fprintf(stderr, "unknown --policy=%s\n", policy.c_str());
    std::exit(2);
  }

  // Pins the arranger to the full clean-and-recopy rebuild instead of the
  // incremental delta plan (A/B runs of the paper's original pass).
  config.system.arranger.incremental =
      flags.Get("no-incremental", "") != "true";

  // Continuous cost-bounded rearrangement: on-days open a utility-priced
  // plan that executes during disk idle time instead of a quiesced batch
  // pass (the batch pass stays available as the oracle).
  config.system.continuous = flags.Get("continuous", "") == "true";

  const std::string scheduler = flags.Get("scheduler", "scan");
  if (scheduler == "scan") {
    config.system.driver.scheduler = sched::SchedulerKind::kScan;
  } else if (scheduler == "fcfs") {
    config.system.driver.scheduler = sched::SchedulerKind::kFcfs;
  } else if (scheduler == "sstf") {
    config.system.driver.scheduler = sched::SchedulerKind::kSstf;
  } else if (scheduler == "clook") {
    config.system.driver.scheduler = sched::SchedulerKind::kCLook;
  } else {
    std::fprintf(stderr, "unknown --scheduler=%s\n", scheduler.c_str());
    std::exit(2);
  }
  return config;
}

// --- Engines ----------------------------------------------------------------
//
// onoff, sweep and policy run on one of three engines:
//  - serial (the default): the paper's file-server experiment on one drive;
//    independent experiments (grid points, --replicas) fan out over --jobs
//    workers;
//  - the sharded fleet (--shards=S): S identical member drives striped
//    block by block under one drive's worth of blocks, each ranking its
//    own hot blocks;
//  - an array (--array=raid0:N|raid1:N, onoff and crashday): N member
//    drives chunk-striped or mirrored, with degraded mode, dirty-region
//    resync, background scrubbing and spare-slot remapping.
// The fleet is an array too: RAID0 at chunk 1 whose members rank from
// their own analyzers. Both run a synthetic day on one ArrayDevice,
// members advancing on --jobs worker threads; their output is
// byte-identical for every --jobs value. Metrics across different member
// counts legitimately differ (a fleet measures different physics than one
// drive); the request stream does not.

/// --epoch=<minutes>|auto: barrier-window control for the barrier engines.
/// A minute count re-grids the fixed epoch; `auto` turns on
/// lookahead-adaptive windows over the default grid. Serial paths and the
/// serial crashday (independent harnesses, no barriers) reject the flag.
struct EpochFlag {
  bool given = false;
  bool adaptive = false;
  std::int64_t minutes = 0;  // >= 1 when given and not adaptive
};

EpochFlag ParseEpochFlag(Flags& flags) {
  EpochFlag e;
  const std::string v = flags.Get("epoch", "");
  if (v.empty()) return e;
  e.given = true;
  if (v == "auto") {
    e.adaptive = true;
    return e;
  }
  if (!ParseInt(v, &e.minutes) || e.minutes < 1 || e.minutes > kInt32Max) {
    std::fprintf(stderr,
                 "bad --epoch=%s (want a minute count >= 1, or auto)\n",
                 v.c_str());
    std::exit(2);
  }
  return e;
}

/// The engine a command runs on.
struct Engine {
  std::int32_t shards = 0;  // > 0: the sharded fleet
  bool array = false;
  array::RaidLevel level = array::RaidLevel::kRaid0;
  std::int32_t members = 0;
  EpochFlag epoch;  // barrier engines only
  bool serial() const { return shards == 0 && !array; }
};

/// Parses --array=raid0:N or raid1:N. Returns false after printing a
/// one-line error.
bool ParseArraySpec(const std::string& s, array::RaidLevel* level,
                    std::int32_t* members) {
  const std::size_t colon = s.find(':');
  const std::string lv = s.substr(0, colon);
  std::int64_t n = 0;
  if (colon == std::string::npos || (lv != "raid0" && lv != "raid1") ||
      !ParseInt(s.substr(colon + 1), &n) || n < 1 || n > 64) {
    std::fprintf(stderr, "bad --array=%s (want raid0:N or raid1:N)\n",
                 s.c_str());
    return false;
  }
  *level = lv == "raid0" ? array::RaidLevel::kRaid0 : array::RaidLevel::kRaid1;
  if (*level == array::RaidLevel::kRaid1 && n < 2) {
    std::fprintf(stderr, "--array=%s out of range (raid1 needs at least 2 "
                         "members)\n", s.c_str());
    return false;
  }
  *members = static_cast<std::int32_t>(n);
  return true;
}

/// Rejects flag combinations that have no meaning in array mode. Returns
/// false (after printing a one-line error) if any is present.
bool RejectNonArrayFleetFlags(Flags& flags) {
  if (flags.Has("shards")) {
    std::fprintf(stderr,
                 "--array cannot be combined with --shards: an array is "
                 "already a fleet of member disks\n");
    return false;
  }
  if (flags.Has("replicas")) {
    std::fprintf(stderr, "--replicas is not supported with --array "
                         "(crashday --array replicates internally)\n");
    return false;
  }
  for (const char* f : {"continuous", "decay"}) {
    if (flags.Has(f)) {
      std::fprintf(stderr,
                   "--%s is not supported with --array (arrays rank from "
                   "exact device counts)\n",
                   f);
      return false;
    }
  }
  return true;
}

/// Reads --array (when the command has an array mode), --shards and
/// --epoch. A command without an array mode leaves --array unread, so it
/// is reported as an unknown flag. Returns false after printing a one-line
/// error.
bool ParseEngine(Flags& flags, bool with_array, Engine* engine) {
  const std::string spec = with_array ? flags.Get("array", "") : "";
  if (!spec.empty()) {
    if (!ParseArraySpec(spec, &engine->level, &engine->members)) return false;
    if (!RejectNonArrayFleetFlags(flags)) return false;
    engine->array = true;
  } else {
    if (with_array) {
      for (const char* f : {"kill-member", "scrub", "chunk"}) {
        if (flags.Has(f)) {
          std::fprintf(stderr, "--%s requires --array\n", f);
          return false;
        }
      }
    }
    engine->shards = flags.GetCount("shards", 0, 0);
    if (engine->shards == 0 && flags.Has("epoch")) {
      std::fprintf(stderr, "--epoch requires a barrier engine "
                           "(--shards or --array)\n");
      return false;
    }
  }
  engine->epoch = ParseEpochFlag(flags);
  return true;
}

/// The device a barrier engine runs on: --array's level and members, or
/// for --shards=S the fleet, RAID0 at chunk 1 whose members rank from their
/// own analyzers (its day addresses one member's blocks; see
/// BuildSyntheticDay). Array-only knobs (chunk, scrub, kills) are the
/// caller's.
array::ArrayConfig BuildArrayConfig(const core::ExperimentConfig& base,
                                    const Engine& engine, std::int32_t jobs) {
  array::ArrayConfig ac;
  if (engine.array) {
    ac.level = engine.level;
    ac.members = engine.members;
  } else {
    ac.level = array::RaidLevel::kRaid0;
    ac.members = engine.shards;
    ac.chunk_blocks = 1;
    ac.spare_slots = 0;
    ac.ranking = array::Ranking::kMemberAnalyzers;
  }
  ac.threads = jobs;
  if (engine.epoch.adaptive) {
    ac.adaptive_epoch = true;
  } else if (engine.epoch.given) {
    ac.epoch = engine.epoch.minutes * kMinute;
  }
  ac.drive = base.drive;
  ac.reserved_cylinders = base.reserved_cylinders;
  ac.rearrange_blocks = base.rearrange_blocks;
  ac.system = base.system;
  return ac;
}

/// The synthetic day the barrier engines run: --day-minutes of Zipf
/// traffic over --population hot blocks. A fleet generates it on its
/// barrier grid over one member's blocks, an array in ArrayDayConfig's
/// default chunks over the whole device. A population larger than the
/// blocks the day addresses ends the run (exit 2).
core::ArrayDayConfig BuildSyntheticDay(Flags& flags,
                                       const array::ArrayConfig& ac,
                                       const core::ExperimentConfig& base,
                                       const Engine& engine) {
  core::ArrayDayConfig day;
  const array::ArrayDevice shape(ac);  // laid out, no members built
  if (engine.shards > 0) {
    day.chunk = ac.epoch;
    day.span_blocks = shape.member_blocks();
  }
  day.seed = base.seed;
  day.day_length = flags.GetCount("day-minutes", 60, 1) * kMinute;
  day.synthetic.population = flags.GetCount("population", 4000, 1);
  const std::int64_t blocks =
      day.span_blocks > 0 ? day.span_blocks : shape.device_blocks();
  // A config the device rejects has no blocks; its run reports why.
  if (blocks > 0 && day.synthetic.population > blocks) {
    std::fprintf(stderr,
                 "--population=%lld exceeds the %lld blocks the day "
                 "addresses\n",
                 static_cast<long long>(day.synthetic.population),
                 static_cast<long long>(blocks));
    std::exit(2);
  }
  day.synthetic.theta = 1.0;
  day.synthetic.write_fraction = 0.3;
  day.synthetic.arrivals.mean_burst_gap = kSecond;
  day.synthetic.arrivals.mean_burst_size = 6.0;
  day.synthetic.arrivals.mean_intra_gap = 10 * kMillisecond;
  return day;
}

/// One run header: the drive and arranger setup, the engine's own tokens,
/// the epoch echo (given flags only, so default runs keep the historical
/// bytes), and the synthetic day, which the fleet names before the
/// arranger mode and the array after it.
void PrintHeader(const core::ExperimentConfig& c, const std::string& engine,
                 const EpochFlag& epoch, const std::string& fleet_day,
                 const std::string& array_day) {
  std::printf("disk=%s  policy=%s  scheduler=%s  blocks=%d  reserved=%d "
              "cylinders%s",
              c.drive.name.c_str(), placement::PolicyKindName(c.system.policy),
              sched::SchedulerKindName(c.system.driver.scheduler),
              c.rearrange_blocks, c.reserved_cylinders, engine.c_str());
  if (epoch.adaptive) {
    std::printf("  epoch=auto");
  } else if (epoch.given) {
    std::printf("  epoch=%lldmin", static_cast<long long>(epoch.minutes));
  }
  std::printf("%s", fleet_day.c_str());
  if (!c.system.arranger.incremental) std::printf("  arranger=full-rebuild");
  if (c.system.continuous) std::printf("  arranger=continuous");
  std::printf("%s\n\n", array_day.c_str());
}

std::string DayNote(const char* kind, const core::ArrayDayConfig& day) {
  char note[64];
  std::snprintf(note, sizeof(note), "  (synthetic %s day, %lld min)", kind,
                static_cast<long long>(day.day_length / kMinute));
  return note;
}

using DayTask = std::function<StatusOr<std::vector<core::DayMetrics>>(
    std::size_t index, core::DayRunner&)>;

/// Runs `task` on a fresh system per config (times `replicas`, serial only)
/// and returns each run's measured days in config-major order. Serial
/// experiments fan out over `jobs` workers; fleet runs go one after
/// another on an ArrayDevice, each advancing its members on `jobs`
/// threads. Either way rows never depend on --jobs scheduling.
StatusOr<std::vector<std::vector<core::DayMetrics>>> RunEach(
    const Engine& engine, const std::vector<core::ExperimentConfig>& configs,
    std::int32_t replicas, std::int32_t jobs, const core::ArrayDayConfig& day,
    const DayTask& task) {
  if (engine.serial()) {
    return core::ParallelRunner(jobs).RunReplicated(
        configs, replicas,
        [&task](std::size_t i, core::Experiment& exp) { return task(i, exp); });
  }
  std::vector<std::vector<core::DayMetrics>> results;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    array::ArrayDevice dev(BuildArrayConfig(configs[i], engine, jobs));
    ABR_RETURN_IF_ERROR(dev.Start());
    core::ArrayDayRunner runner(&dev, day);
    StatusOr<std::vector<core::DayMetrics>> days = task(i, runner);
    if (!days.ok()) return days.status();
    results.push_back(std::move(*days));
  }
  return results;
}

/// Min/avg/max of the daily mean seek over the off and on days, plus mean
/// service and wait times — the summary of Tables 2 and 5.
void PrintOnOffTable(const std::vector<core::OnOffResult>& runs) {
  core::OnOffResult merged;
  for (const core::OnOffResult& run : runs) {
    merged.off_days.insert(merged.off_days.end(), run.off_days.begin(),
                           run.off_days.end());
    merged.on_days.insert(merged.on_days.end(), run.on_days.begin(),
                          run.on_days.end());
  }
  Table t({"On/Off", "seek min", "seek avg", "seek max", "svc avg",
           "wait avg"});
  for (const auto& [label, daysv] :
       {std::pair{"Off", &merged.off_days}, {"On", &merged.on_days}}) {
    core::SummaryRow row =
        core::OnOffResult::Summarize(*daysv, core::OnOffResult::Slice::kAll);
    t.AddRow({label, Table::Fmt(row.seek_ms.min()),
              Table::Fmt(row.seek_ms.avg()), Table::Fmt(row.seek_ms.max()),
              Table::Fmt(row.service_ms.avg()),
              Table::Fmt(row.wait_ms.avg())});
  }
  std::printf("%s", t.ToString().c_str());
}

/// The arrangement (or clean) pass that prepared each measured day: the
/// delta-plan outcome counters plus the movement I/O it cost. Off days run
/// a clean pass, so their removals land in "evicted". The idle columns are
/// the disk-time budget of all members: seconds no member spent serving
/// anything, seconds spent on movement I/O, seconds user requests stalled
/// behind an in-flight move, and the share of slack time the arranger
/// used. Values are summed across runs (replicas) in run order — output
/// stays byte-identical for every --jobs value.
void PrintPassTable(const std::vector<core::OnOffResult>& runs,
                    std::int32_t days) {
  Table a({"pass before", "kept", "shuffled", "evicted", "admitted",
           "skipped", "deferred", "internal ios", "io ms", "idle s",
           "move s", "stall s", "mv/idle"});
  const auto add_rows = [&](const char* label, bool on) {
    for (std::int32_t d = 0; d < days; ++d) {
      placement::ArrangeResult sum;
      core::DayMetrics day_sum;
      for (const core::OnOffResult& run : runs) {
        const core::DayMetrics& day =
            (on ? run.on_days : run.off_days)[static_cast<std::size_t>(d)];
        sum.MergeFrom(day.arrange);
        day_sum.elapsed += day.elapsed;
        day_sum.util.MergeFrom(day.util);
      }
      char name[16];
      std::snprintf(name, sizeof(name), "%s %d", label, d + 1);
      a.AddRow({name, Table::Fmt((std::int64_t)sum.kept),
                Table::Fmt((std::int64_t)sum.shuffled),
                Table::Fmt((std::int64_t)sum.evicted),
                Table::Fmt((std::int64_t)sum.admitted),
                Table::Fmt((std::int64_t)sum.skipped),
                Table::Fmt((std::int64_t)sum.deferred),
                Table::Fmt(sum.internal_ios),
                Table::Fmt(MicrosToMillis(sum.io_time), 1),
                Table::Fmt(day_sum.idle_seconds(), 1),
                Table::Fmt(day_sum.move_seconds(), 1),
                Table::Fmt(day_sum.stall_seconds(), 1),
                Table::Fmt(day_sum.idle_move_fraction(), 3)});
    }
  };
  add_rows("Off", /*on=*/false);
  add_rows("On", /*on=*/true);
  std::printf("\n%s", a.ToString().c_str());
}

/// Runs `run_one(i)` for i in [0, total) — inline with one job, over a
/// worker pool otherwise — and returns the results in index order, so
/// tables built from them are byte-identical for every --jobs value.
template <typename T, typename Fn>
std::vector<T> FanOut(std::int32_t total, std::int32_t jobs, const Fn& run_one) {
  std::vector<T> results(static_cast<std::size_t>(total));
  if (jobs == 1) {
    for (std::int32_t i = 0; i < total; ++i) {
      results[static_cast<std::size_t>(i)] = run_one(i);
    }
    return results;
  }
  ThreadPool pool(static_cast<std::size_t>(jobs));
  std::vector<std::future<T>> futures;
  futures.reserve(static_cast<std::size_t>(total));
  for (std::int32_t i = 0; i < total; ++i) {
    futures.push_back(pool.Submit([&run_one, i]() { return run_one(i); }));
  }
  for (std::int32_t i = 0; i < total; ++i) {
    results[static_cast<std::size_t>(i)] =
        futures[static_cast<std::size_t>(i)].get();
  }
  return results;
}

int CmdOnOff(Flags& flags) {
  Engine engine;
  if (!ParseEngine(flags, /*with_array=*/true, &engine)) return 2;
  const bool raid1 = engine.array && engine.level == array::RaidLevel::kRaid1;
  std::int32_t kill_member = -1;
  std::int32_t scrub = 0;
  if (engine.array) {
    if (flags.Has("chunk") && engine.level != array::RaidLevel::kRaid0) {
      std::fprintf(stderr, "--chunk only applies to raid0 arrays\n");
      return 2;
    }
    if (flags.Has("kill-member")) {
      // A bare --kill-member kills member 0.
      kill_member = flags.Get("kill-member", "") == "true"
                        ? 0
                        : flags.GetCount("kill-member", 0, 0);
      if (!raid1) {
        std::fprintf(stderr, "--kill-member requires a raid1 array (raid0 "
                             "has no redundancy to survive it)\n");
        return 2;
      }
      if (kill_member >= engine.members) {
        std::fprintf(stderr, "--kill-member=%d out of range (array has %d "
                             "members)\n", kill_member, engine.members);
        return 2;
      }
    }
    scrub = flags.GetCount("scrub", 0, 0);
  }
  core::ExperimentConfig base = BuildConfig(flags);
  const std::int32_t days = flags.GetCount("days", 3, 1);
  const std::int32_t replicas =
      engine.serial() ? flags.GetCount("replicas", 1, 1) : 1;
  const std::int32_t jobs = flags.GetCount("jobs", 1, 1);
  const std::int64_t chunk =
      engine.array ? flags.GetInt("chunk", 4, 1, kInt64Max) : 0;
  array::ArrayConfig ac;
  core::ArrayDayConfig day;
  if (!engine.serial()) {
    ac = BuildArrayConfig(base, engine, jobs);
    if (engine.array) {
      ac.chunk_blocks = chunk;
      ac.scrub_batch = scrub;
    }
    day = BuildSyntheticDay(flags, ac, base, engine);
  }
  flags.CheckAllUsed();

  std::vector<core::OnOffResult> runs;
  const DayTask task = [days](std::size_t, core::DayRunner& runner)
      -> StatusOr<std::vector<core::DayMetrics>> {
    StatusOr<core::OnOffResult> r = core::RunOnOffLoop(runner, days);
    if (!r.ok()) return r.status();
    return core::InterleaveOnOff(*r);
  };
  if (!engine.array) {
    std::string tokens;
    if (engine.shards > 0) {
      tokens = "  shards=" + std::to_string(engine.shards);
    } else if (replicas > 1) {
      tokens = "  replicas=" + std::to_string(replicas);
    }
    PrintHeader(base, tokens, engine.epoch,
                engine.shards > 0 ? DayNote("fleet", day) : "", "");
    // Replication 0 keeps the config's own seed, so the default
    // --replicas=1 output is byte-identical to the historical serial run;
    // extra replications fold into the same rows in replication order.
    auto results = RunEach(engine, {base}, replicas, jobs, day, task);
    if (!results.ok()) Die("onoff", results.status());
    for (const std::vector<core::DayMetrics>& run : *results) {
      runs.push_back(core::SplitOnOff(run));
    }
    PrintOnOffTable(runs);
    PrintPassTable(runs, days);
    return 0;
  }

  if (kill_member >= 0) {
    // A timed crash point mid first on-day: the member dies under live
    // traffic and the runner reattaches it a day later.
    ac.fault_plans.resize(static_cast<std::size_t>(engine.members));
    fault::CrashPoint cp;
    cp.at_time = (5 * day.day_length) / 2;
    ac.fault_plans[static_cast<std::size_t>(kill_member)].crashes.push_back(
        cp);
  }

  std::string tokens = std::string("  array=") +
                       array::RaidLevelName(engine.level) + ":" +
                       std::to_string(engine.members);
  if (!raid1) tokens += "  chunk=" + std::to_string(chunk);
  if (scrub > 0) tokens += "  scrub=" + std::to_string(scrub);
  if (kill_member >= 0) tokens += "  kill-member=" + std::to_string(kill_member);
  PrintHeader(base, tokens, engine.epoch, "", DayNote("array", day));

  array::ArrayDevice dev(ac);
  if (Status st = dev.Start(); !st.ok()) Die("onoff", st);
  core::ArrayDayRunner runner(&dev, day);
  StatusOr<core::ArrayOnOffResult> result = core::RunArrayOnOff(runner, days);
  if (!result.ok()) Die("onoff", result.status());
  if (!dev.first_error().empty()) {
    std::fprintf(stderr, "array error: %s\n", dev.first_error().c_str());
    return 1;
  }
  runs.push_back(*result);
  PrintOnOffTable(runs);

  // Availability story of the run: a kill shows up as one crash, a string
  // of passes skipped while degraded, and a resync that copied only the
  // dirty granules.
  std::printf("\ncrashes=%d  resyncs=%d  granules-copied=%lld  "
              "passes-skipped=%lld  lost-requests=%lld  spares-used=%d\n",
              result->crashes_seen, result->resyncs_completed,
              static_cast<long long>(dev.resync_granules_copied()),
              static_cast<long long>(result->passes_skipped_degraded),
              static_cast<long long>(result->lost_requests),
              result->spares_used);

  // Per-member fault-path counters across driver generations.
  Table f({"member", "state", "retries", "aborts", "remaps", "scrub hits"});
  for (std::int32_t m = 0; m < engine.members; ++m) {
    const driver::FaultCounters fc = dev.MemberFaults(m);
    f.AddRow({Table::Fmt((std::int64_t)m),
              array::MemberStateName(dev.member_state(m)),
              Table::Fmt(fc.retries), Table::Fmt(fc.aborted_chains),
              Table::Fmt(fc.remaps), Table::Fmt(fc.scrub_hits)});
  }
  std::printf("\n%s", f.ToString().c_str());
  return 0;
}

// sweep and policy run every point on its own system, serial points fanned
// out over --jobs workers (RunEach). Every run derives all randomness from
// its own config, and rows are built in config order, so the printed
// tables are byte-identical for every --jobs value.

/// sweep and policy rearrange between days with batch passes, so a
/// --continuous run would print arranger=continuous over batch rows.
/// Returns false (after printing a one-line error) if the flag is set.
bool RejectContinuous(Flags& flags, const char* command) {
  if (!flags.Has("continuous")) return true;
  std::fprintf(stderr,
               "--continuous is not supported by %s (it rearranges with "
               "batch passes)\n",
               command);
  return false;
}

int CmdSweep(Flags& flags) {
  Engine engine;
  if (!ParseEngine(flags, /*with_array=*/false, &engine)) return 2;
  if (!RejectContinuous(flags, "sweep")) return 2;
  std::vector<std::int32_t> points;
  const std::string list = flags.Get("blocks-list", "0,25,100,400,1018");
  for (std::size_t pos = 0; pos <= list.size();) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::int64_t blocks = 0;
    if (!ParseInt(list.substr(pos, comma - pos), &blocks) || blocks < 0 ||
        blocks > kInt32Max) {
      std::fprintf(stderr, "bad --blocks-list=%s (want counts like "
                           "0,100,400)\n", list.c_str());
      return 2;
    }
    points.push_back(static_cast<std::int32_t>(blocks));
    pos = comma + 1;
  }
  core::ExperimentConfig base = BuildConfig(flags);
  const std::int32_t jobs = flags.GetCount("jobs", 1, 1);
  core::ArrayDayConfig day;
  if (!engine.serial()) {
    day = BuildSyntheticDay(flags, BuildArrayConfig(base, engine, jobs), base,
                            engine);
  }
  flags.CheckAllUsed();
  if (!engine.serial()) {
    PrintHeader(base, "  shards=" + std::to_string(engine.shards),
                engine.epoch, DayNote("fleet", day), "");
  }

  // One identical config per point; the per-point block count is applied
  // after the warm-up day (the table was sized at setup from the base
  // config).
  std::vector<core::ExperimentConfig> configs(points.size(), base);
  auto results = RunEach(
      engine, configs, /*replicas=*/1, jobs, day,
      [&points](std::size_t index, core::DayRunner& runner)
          -> StatusOr<std::vector<core::DayMetrics>> {
        auto warmup = runner.RunMeasuredDay();
        if (!warmup.ok()) return warmup.status();
        const std::int32_t blocks = points[index];
        runner.set_rearrange_blocks(blocks);
        ABR_RETURN_IF_ERROR(blocks > 0 ? runner.RearrangeForNextDay()
                                       : runner.CleanForNextDay());
        runner.AdvanceWorkloadDay();
        auto measured = runner.RunMeasuredDay();
        if (!measured.ok()) return measured.status();
        return std::vector<core::DayMetrics>{*measured};
      });
  if (!results.ok()) Die("sweep", results.status());

  Table t({"blocks", "seek ms", "zero-seek %", "service ms", "wait ms"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::DayMetrics& d = (*results)[i][0];
    t.AddRow({Table::Fmt((std::int64_t)points[i]),
              Table::Fmt(d.all.mean_seek_ms, 2),
              Table::Fmt(d.all.zero_seek_pct, 0),
              Table::Fmt(d.all.mean_service_ms, 2),
              Table::Fmt(d.all.mean_wait_ms, 2)});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int CmdPolicy(Flags& flags) {
  Engine engine;
  if (!ParseEngine(flags, /*with_array=*/false, &engine)) return 2;
  if (!RejectContinuous(flags, "policy")) return 2;
  core::ExperimentConfig base = BuildConfig(flags);
  const std::int32_t days = flags.GetCount("days", 2, 1);
  const std::int32_t jobs = flags.GetCount("jobs", 1, 1);
  core::ArrayDayConfig day;
  if (!engine.serial()) {
    day = BuildSyntheticDay(flags, BuildArrayConfig(base, engine, jobs), base,
                            engine);
  }
  flags.CheckAllUsed();
  if (!engine.serial()) {
    PrintHeader(base, "  shards=" + std::to_string(engine.shards),
                engine.epoch, DayNote("fleet", day), "");
  }

  const std::vector<placement::PolicyKind> kinds = {
      placement::PolicyKind::kOrganPipe, placement::PolicyKind::kInterleaved,
      placement::PolicyKind::kSerial};
  std::vector<core::ExperimentConfig> configs;
  for (const auto kind : kinds) {
    core::ExperimentConfig config = base;
    config.system.policy = kind;
    configs.push_back(std::move(config));
  }
  auto results = RunEach(
      engine, configs, /*replicas=*/1, jobs, day,
      [days](std::size_t, core::DayRunner& runner)
          -> StatusOr<std::vector<core::DayMetrics>> {
        auto warmup = runner.RunMeasuredDay();
        if (!warmup.ok()) return warmup.status();
        std::vector<core::DayMetrics> measured;
        for (std::int32_t i = 0; i < days; ++i) {
          ABR_RETURN_IF_ERROR(runner.RearrangeForNextDay());
          runner.AdvanceWorkloadDay();
          auto d = runner.RunMeasuredDay();
          if (!d.ok()) return d.status();
          measured.push_back(*d);
        }
        return measured;
      });
  if (!results.ok()) Die("policy", results.status());

  Table t({"policy", "on-day seek ms", "zero-seek %", "service ms",
           "rot+xfer ms (reads)"});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    double seek = 0, zero = 0, service = 0, rot = 0;
    for (const core::DayMetrics& d : (*results)[i]) {
      seek += d.all.mean_seek_ms;
      zero += d.all.zero_seek_pct;
      service += d.all.mean_service_ms;
      rot += d.reads.rot_plus_transfer_ms;
    }
    const double n = days;
    t.AddRow({placement::PolicyKindName(kinds[i]), Table::Fmt(seek / n, 2),
              Table::Fmt(zero / n, 0), Table::Fmt(service / n, 2),
              Table::Fmt(rot / n, 2)});
  }
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int CmdTraceStats(Flags& flags) {
  const std::string path = flags.Get("file", "");
  flags.CheckAllUsed();
  if (path.empty()) {
    std::fprintf(stderr, "trace-stats requires --file=<trace>\n");
    return 2;
  }
  StatusOr<workload::Trace> trace = workload::Trace::LoadFrom(path);
  if (!trace.ok()) Die("load trace", trace.status());
  const workload::TraceStats s = workload::TraceStats::Of(*trace);
  Table t({"metric", "value"});
  t.AddRow({"requests", Table::Fmt(s.requests)});
  t.AddRow({"reads", Table::Fmt(s.reads)});
  t.AddRow({"writes", Table::Fmt(s.writes)});
  t.AddRow({"duration (s)", Table::Fmt(MicrosToMillis(s.duration) / 1000.0, 1)});
  t.AddRow({"rate (req/s)", Table::Fmt(s.requests_per_second, 2)});
  t.AddRow({"read fraction", Table::Fmt(s.read_fraction, 3)});
  t.AddRow({"distinct blocks", Table::Fmt(s.distinct_blocks)});
  t.AddRow({"top-10 share", Table::Fmt(s.top10_fraction, 3)});
  t.AddRow({"top-100 share", Table::Fmt(s.top100_fraction, 3)});
  t.AddRow({"top-1000 share", Table::Fmt(s.top1000_fraction, 3)});
  t.AddRow({"inter-arrival CV^2", Table::Fmt(s.interarrival_cv2, 2)});
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int CmdSpecs() {
  Table t({"", "Toshiba MK156F", "Fujitsu M2266"});
  const disk::DriveSpec a = disk::DriveSpec::ToshibaMK156F();
  const disk::DriveSpec b = disk::DriveSpec::FujitsuM2266();
  t.AddRow({"Capacity (MB)",
            Table::Fmt(a.geometry.capacity_bytes() / 1e6, 0),
            Table::Fmt(b.geometry.capacity_bytes() / 1e6, 0)});
  t.AddRow({"Cylinders", Table::Fmt((std::int64_t)a.geometry.cylinders),
            Table::Fmt((std::int64_t)b.geometry.cylinders)});
  t.AddRow({"Tracks/cylinder",
            Table::Fmt((std::int64_t)a.geometry.tracks_per_cylinder),
            Table::Fmt((std::int64_t)b.geometry.tracks_per_cylinder)});
  t.AddRow({"Sectors/track",
            Table::Fmt((std::int64_t)a.geometry.sectors_per_track),
            Table::Fmt((std::int64_t)b.geometry.sectors_per_track)});
  t.AddRow({"RPM", Table::Fmt((std::int64_t)a.geometry.rpm),
            Table::Fmt((std::int64_t)b.geometry.rpm)});
  t.AddRow({"Track buffer (KB)", Table::Fmt(a.track_buffer_bytes / 1024),
            Table::Fmt(b.track_buffer_bytes / 1024)});
  t.AddRow({"Seek, 1 cyl (ms)", Table::Fmt(a.seek_model.Millis(1), 2),
            Table::Fmt(b.seek_model.Millis(1), 2)});
  t.AddRow({"Seek, full stroke (ms)",
            Table::Fmt(a.seek_model.Millis(a.seek_model.max_distance()), 2),
            Table::Fmt(b.seek_model.Millis(b.seek_model.max_distance()), 2)});
  std::printf("%s", t.ToString().c_str());
  return 0;
}

int CmdCrashDayArray(Flags& flags, const std::string& spec) {
  array::RaidLevel level = array::RaidLevel::kRaid1;
  std::int32_t members = 0;
  if (!ParseArraySpec(spec, &level, &members)) return 2;
  if (level != array::RaidLevel::kRaid1) {
    std::fprintf(stderr, "crashday --array requires raid1: the harness "
                         "proves mirror availability\n");
    return 2;
  }
  if (!RejectNonArrayFleetFlags(flags)) return 2;
  if (flags.Has("chunk") || flags.Has("scrub")) {
    std::fprintf(stderr, "--chunk/--scrub are onoff-mode array flags\n");
    return 2;
  }
  const std::uint64_t fault_seed = flags.GetSeed("fault-seed", 0xC4A5);
  const std::int32_t pairs = flags.GetCount("pairs", 4, 1);
  const std::int32_t jobs = flags.GetCount("jobs", 1, 1);
  // Bare --kill-member kills member 0 (the point of the exercise); an
  // explicit index picks the victim.
  const std::int32_t kill_member =
      flags.Get("kill-member", "true") == "true"
          ? 0
          : flags.GetCount("kill-member", 0, 0);
  const bool quick = flags.Get("quick", "") == "true";
  const EpochFlag epoch = ParseEpochFlag(flags);
  flags.CheckAllUsed();
  if (kill_member >= members) {
    std::fprintf(stderr, "--kill-member=%d out of range (array has %d "
                         "members)\n", kill_member, members);
    return 2;
  }

  std::printf("fault-seed=%llu  array=raid1:%d  kill-member=%d  pairs=%d%s",
              static_cast<unsigned long long>(fault_seed), members,
              kill_member, pairs, quick ? "  (quick)" : "");
  if (epoch.adaptive) {
    std::printf("  epoch=auto");
  } else if (epoch.given) {
    std::printf("  epoch=%lldmin", static_cast<long long>(epoch.minutes));
  }
  std::printf("\n\n");

  // Each pair runs the same seeded workload twice: once uninterrupted,
  // once with the victim killed at a seed-derived crash point and later
  // reattached. The mirror is consistent iff both runs verify clean AND
  // land on bit-identical payload fingerprints and mapping sets. Pairs fan
  // out across --jobs workers; each run is single-threaded, so the table
  // is byte-identical for every --jobs value.
  struct RunOut {
    array::ArrayHarnessResult r;
    std::vector<driver::FaultCounters> faults;
  };
  const auto kill_point = [&](std::int32_t pair) -> std::int64_t {
    std::uint64_t x = fault_seed + static_cast<std::uint64_t>(pair) * 0x9E37;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return 1 + static_cast<std::int64_t>(x % 997);
  };
  const auto run_one = [&](std::int32_t index) -> RunOut {
    const std::int32_t pair = index / 2;
    const bool killed = (index % 2) == 1;
    array::ArrayHarnessConfig c;
    if (quick) c = c.Quick();
    c.seed = fault_seed + static_cast<std::uint64_t>(pair) * 0x51ED;
    c.members = members;
    if (epoch.adaptive) {
      c.adaptive_epoch = true;
    } else if (epoch.given) {
      c.epoch = epoch.minutes * kMinute;
    }
    if (killed) {
      c.kill_member = kill_member;
      c.kill_at_io = kill_point(pair);
    }
    array::ArrayCrashHarness harness(c);
    RunOut out;
    out.r = harness.Run();
    if (harness.device() != nullptr) {
      for (std::int32_t m = 0; m < members; ++m) {
        out.faults.push_back(harness.device()->MemberFaults(m));
      }
    }
    return out;
  };

  const std::vector<RunOut> results = FanOut<RunOut>(pairs * 2, jobs, run_one);

  Table t({"pair", "kill@io", "crashes", "acked", "reads ok", "granules",
           "skipped", "mism", "twin match"});
  bool all_ok = true;
  for (std::int32_t p = 0; p < pairs; ++p) {
    const array::ArrayHarnessResult& twin =
        results[static_cast<std::size_t>(p * 2)].r;
    const array::ArrayHarnessResult& killed =
        results[static_cast<std::size_t>(p * 2 + 1)].r;
    const bool match = twin.fingerprint_hash == killed.fingerprint_hash &&
                       twin.mapping_hash == killed.mapping_hash;
    const bool ok = twin.ok() && killed.ok() && match;
    t.AddRow({Table::Fmt((std::int64_t)p), Table::Fmt(kill_point(p)),
              Table::Fmt((std::int64_t)killed.crashes),
              Table::Fmt(killed.writes_acked),
              Table::Fmt(killed.reads_checked),
              Table::Fmt(killed.resync_granules_copied),
              Table::Fmt(killed.passes_skipped),
              Table::Fmt(twin.mismatches + killed.mismatches),
              ok ? (match ? "yes" : "-") : "NO"});
    if (!ok) {
      all_ok = false;
      const std::string& err = !twin.first_error.empty()
                                   ? twin.first_error
                                   : killed.first_error;
      std::fprintf(stderr, "pair %d FAILED: %s\n", p,
                   err.empty() ? "fingerprint diverged from twin"
                               : err.c_str());
    }
  }
  std::printf("%s", t.ToString().c_str());

  // Per-member fault-path counters of the killed runs, in (pair, member)
  // order: where the retries, aborted move chains, remaps, and scrub hits
  // landed.
  Table f({"pair", "member", "retries", "aborts", "remaps", "scrub hits"});
  for (std::int32_t p = 0; p < pairs; ++p) {
    const RunOut& killed = results[static_cast<std::size_t>(p * 2 + 1)];
    for (std::size_t m = 0; m < killed.faults.size(); ++m) {
      const driver::FaultCounters& fc = killed.faults[m];
      f.AddRow({Table::Fmt((std::int64_t)p), Table::Fmt((std::int64_t)m),
                Table::Fmt(fc.retries), Table::Fmt(fc.aborted_chains),
                Table::Fmt(fc.remaps), Table::Fmt(fc.scrub_hits)});
    }
  }
  std::printf("\n%s", f.ToString().c_str());
  std::printf("\n%s\n", all_ok
                            ? "mirror consistent: no acknowledged write lost"
                            : "CONSISTENCY FAILURE");
  return all_ok ? 0 : 1;
}

int CmdCrashDay(Flags& flags) {
  const std::string array_spec = flags.Get("array", "");
  if (!array_spec.empty()) return CmdCrashDayArray(flags, array_spec);
  for (const char* f : {"kill-member", "scrub", "chunk", "pairs"}) {
    if (flags.Has(f)) {
      std::fprintf(stderr, "--%s requires --array\n", f);
      return 2;
    }
  }
  if (flags.Has("epoch")) {
    std::fprintf(stderr, "--epoch is not supported on the crashday fleet: "
                         "its per-member harnesses run serially, with no "
                         "epoch barriers (use crashday --array)\n");
    return 2;
  }
  const std::uint64_t fault_seed = flags.GetSeed("fault-seed", 0xC4A5);
  const std::int32_t crash_points = flags.GetCount("crash-points", 2, 0);
  const std::int32_t replicas = flags.GetCount("replicas", 4, 1);
  const std::int32_t jobs = flags.GetCount("jobs", 1, 1);
  const std::int32_t shards = flags.GetCount("shards", 1, 1);
  const std::int32_t timed_crash_points =
      flags.GetCount("timed-crash-points", 0, 0);
  const bool quick = flags.Get("quick", "") == "true";
  const bool incremental = flags.Get("no-incremental", "") != "true";
  const bool continuous = flags.Get("continuous", "") == "true";
  flags.CheckAllUsed();

  std::printf("fault-seed=%llu  crash-points=%d  replicas=%d%s%s",
              static_cast<unsigned long long>(fault_seed), crash_points,
              replicas, quick ? "  (quick)" : "",
              incremental ? "" : "  arranger=full-rebuild");
  // shards=1 keeps the header (and everything below) byte-identical to
  // the historical single-machine output.
  if (shards > 1) std::printf("  shards=%d", shards);
  if (timed_crash_points > 0) {
    std::printf("  timed-crash-points=%d", timed_crash_points);
  }
  if (continuous) std::printf("  arranger=continuous");
  std::printf("\n\n");

  // Each replica is a fleet of `shards` fully independent member machines
  // (crash consistency is per member: every member has its own media,
  // table, and fault plan). Member 0 keeps the historical replica seed so
  // --shards=1 reproduces the old bytes; results land in a (replica,
  // member)-indexed vector and fold in member order, so the table below is
  // byte-identical for every --jobs value.
  const std::int32_t total = replicas * shards;
  auto run_one = [&](std::int32_t index) {
    const std::int32_t replica = index / shards;
    const std::int32_t member = index % shards;
    fault::CrashHarnessConfig config;
    config.seed = fault_seed + static_cast<std::uint64_t>(replica) * 0x9E37 +
                  static_cast<std::uint64_t>(member) * 0x51ED;
    config.crash_points = crash_points;
    config.timed_crash_points = timed_crash_points;
    config.incremental = incremental;
    config.continuous = continuous;
    if (quick) config = config.Quick();
    fault::CrashHarness harness(config);
    return harness.Run();
  };
  const std::vector<fault::CrashHarnessResult> results =
      FanOut<fault::CrashHarnessResult>(total, jobs, run_one);

  Table t({"replica", "crashes", "tbl/arr/std", "acked", "verified",
           "indet", "retries", "aborts", "mism", "fingerprint"});
  bool all_ok = true;
  for (std::int32_t i = 0; i < replicas; ++i) {
    // Fold the replica's members in member order. With one member the
    // fold is the identity, fingerprint included.
    fault::CrashHarnessResult r =
        results[static_cast<std::size_t>(i * shards)];
    for (std::int32_t s = 1; s < shards; ++s) {
      const fault::CrashHarnessResult& m =
          results[static_cast<std::size_t>(i * shards + s)];
      r.crashes += m.crashes;
      r.crash_in_table_save += m.crash_in_table_save;
      r.crash_in_arrangement += m.crash_in_arrangement;
      r.crash_in_steady_state += m.crash_in_steady_state;
      r.writes_acked += m.writes_acked;
      r.blocks_verified += m.blocks_verified;
      r.blocks_indeterminate += m.blocks_indeterminate;
      r.faults.MergeFrom(m.faults);
      r.mismatches += m.mismatches;
      r.fingerprint_hash ^= m.fingerprint_hash * 0x9E3779B97F4A7C15ULL +
                            static_cast<std::uint64_t>(s);
      if (r.first_error.empty()) r.first_error = m.first_error;
    }
    char where[32];
    std::snprintf(where, sizeof(where), "%d/%d/%d", r.crash_in_table_save,
                  r.crash_in_arrangement, r.crash_in_steady_state);
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint_hash));
    t.AddRow({Table::Fmt((std::int64_t)i),
              Table::Fmt((std::int64_t)r.crashes), where,
              Table::Fmt(r.writes_acked), Table::Fmt(r.blocks_verified),
              Table::Fmt(r.blocks_indeterminate),
              Table::Fmt(r.faults.retries),
              Table::Fmt(r.faults.aborted_chains), Table::Fmt(r.mismatches),
              hash});
    if (!r.ok()) {
      all_ok = false;
      std::fprintf(stderr, "replica %d FAILED: %s\n", i,
                   r.first_error.empty() ? "payload mismatches"
                                         : r.first_error.c_str());
    }
  }
  std::printf("%s", t.ToString().c_str());
  std::printf("\n%s\n", all_ok ? "all replicas consistent"
                               : "CONSISTENCY FAILURE");
  return all_ok ? 0 : 1;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: abrsim <command> [flags]\n"
      "commands:\n"
      "  specs       print the Table 1 drive models\n"
      "  trace-stats characterize a saved trace (--file=...)\n"
      "  onoff    alternating off/on days; summary like Tables 2/5\n"
      "  sweep    vary the number of rearranged blocks (Figure 8)\n"
      "  policy   compare placement policies (Tables 7-10)\n"
      "  crashday fault-injected workload days with scheduled crashes;\n"
      "           verifies no acknowledged write is lost or misdirected\n"
      "common flags: --disk=toshiba|fujitsu --workload=system|users\n"
      "  --days=N --policy=organpipe|interleaved|serial --blocks=N\n"
      "  --cylinders=N --scheduler=scan|fcfs|sstf|clook --seed=N\n"
      "  --decay=F  in [0, 1): scale the reference counts by F at each\n"
      "    period end instead of resetting them (0, the default, resets;\n"
      "    not with --array, whose ranking uses exact device counts)\n"
      "  --no-incremental  full clean-and-recopy rearrangement passes\n"
      "    instead of the incremental delta plan (also for crashday)\n"
      "  --continuous  utility-priced plans executed during disk idle\n"
      "    time instead of quiesced daily batch passes (onoff serial and\n"
      "    sharded, and crashday; batch remains the default oracle; sweep\n"
      "    and policy reject it)\n"
      "sweep only: --blocks-list=a,b,c\n"
      "sweep/policy: --jobs=N  run grid points on N worker threads\n"
      "  (output is byte-identical for every N; N=1 runs inline)\n"
      "onoff: --replicas=R  independent replications (replica 0 keeps\n"
      "  --seed, so R=1 reproduces the serial run); --jobs=N fans the\n"
      "  replications across N workers with identical output for every N\n"
      "crashday: --fault-seed=N --crash-points=N --replicas=R --jobs=N\n"
      "  --timed-crash-points=N  crashes scheduled by global simulated\n"
      "  time (they can land inside a suspended continuous plan)\n"
      "  --quick  (output is byte-identical across runs and --jobs)\n"
      "sharded fleet (onoff/sweep/policy): --shards=S  stripe one drive's\n"
      "  blocks block by block across S member drives (RAID0 at chunk 1),\n"
      "  each member a full stack that ranks from its own analyzer, stepped\n"
      "  in epochs with a deterministic time-ordered completion merge;\n"
      "  --jobs=N picks the worker-thread count and the output is\n"
      "  byte-identical for every N at fixed S (S=1 is the single-machine\n"
      "  oracle). Runs a synthetic fleet day: --day-minutes=M (default 60)\n"
      "  --population=B hot blocks (4000, at most the blocks the day\n"
      "  addresses: one member's for the fleet, the device's for --array)\n"
      "barrier engines (--shards and --array): --epoch=<minutes>|auto\n"
      "  <minutes> re-grids the fixed barrier epoch; auto turns on\n"
      "  lookahead-adaptive windows — quiet stretches fuse several grids\n"
      "  into one parallel window, windows that could contain a fault or\n"
      "  crash event fall back to single-grid stepping. Output stays\n"
      "  byte-identical for every --jobs value and bit-identical to the\n"
      "  fixed-epoch run at the same grid. Rejected on serial paths and\n"
      "  the crashday fleet (no barriers there)\n"
      "crashday: --shards=S  runs S independent member harnesses per\n"
      "  replica and folds their counters (S=1 keeps the legacy bytes)\n"
      "multi-disk arrays (onoff/crashday): --array=raid0:N|raid1:N\n"
      "  compose N member drives into one virtual device — raid0 stripes\n"
      "  in --chunk=C block units (raid0 only); raid1 mirrors writes and\n"
      "  routes reads to the member with the shortest predicted seek.\n"
      "  Output is byte-identical for every --jobs value at a fixed array\n"
      "  shape. --array excludes --shards/--replicas/--continuous/--decay.\n"
      "onoff --array: --scrub=N  verify N cold blocks per member per epoch\n"
      "  in idle time, remapping persistent errors into spare slots;\n"
      "  --kill-member[=M]  (raid1 only) kill member M mid measured day,\n"
      "  serve degraded, reattach a day later, and resync only the dirty\n"
      "  granules in the background of later traffic\n"
      "crashday --array=raid1:N: --kill-member[=M] --pairs=P --jobs=N\n"
      "  run P twin pairs (uninterrupted vs killed-at-seeded-crash-point\n"
      "  and resynced); each pair must land on bit-identical payload\n"
      "  fingerprints and mapping sets, proving no acked write is lost\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (command == "specs") return CmdSpecs();
  if (command == "trace-stats") return CmdTraceStats(flags);
  if (command == "onoff") return CmdOnOff(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "policy") return CmdPolicy(flags);
  if (command == "crashday") return CmdCrashDay(flags);
  Usage();
  return 2;
}
