// perfbench: the benchmark of record for the adaptive block rearrangement
// simulator. One invocation runs one named workload through the library's
// public API, checks its outputs, and prints every metric by name with its
// unit and better direction; the last stdout line is one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// alternates traced and untraced runs and reports the per-layer metrics,
// each layer's self time, and the tracing overhead; --spans writes the
// spans of the last traced run as JSON lines. See README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/array_day.h"
#include "core/experiment.h"
#include "core/onoff.h"
#include "stacks.h"

namespace perfbench {
namespace {

using namespace abr;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  /// Independent stacks, each with its own sub-seed, that one run builds
  /// and pools: simulated metrics then average over many layouts and hot
  /// sets instead of resting on one.
  std::int32_t instances = 1;
  std::int32_t days_per_side = 3;
  std::optional<SerialConfig> serial;
  std::optional<ArrayStackConfig> array;
};

/// The paper's protocol: Toshiba + system file system, SCAN, incremental
/// batch passes, alternating off/on days, one thread.
Workload FsOnOff(std::uint64_t seed) {
  Workload w;
  w.instances = 64;
  w.days_per_side = 1;
  SerialConfig s;
  s.experiment = core::ExperimentConfig::ToshibaSystem();
  s.experiment.seed = seed;
  w.serial = s;
  return w;
}

/// Serial Fujitsu drive (3,500 rearranged blocks) with the continuous
/// arranger under driver-level traffic whose hot set turns over daily and
/// drifts mid-day, on short days.
Workload ChurnContinuous(std::uint64_t seed) {
  Workload w;
  w.instances = 32;
  w.days_per_side = 3;
  SerialConfig s;
  s.experiment = core::ExperimentConfig::FujitsuSystem();
  s.experiment.seed = seed;
  s.experiment.system.continuous = true;
  workload::SyntheticConfig t;
  t.population = 40000;
  t.theta = 1.0;
  t.write_fraction = 0.2;
  t.arrivals.mean_burst_gap = 500 * kMillisecond;
  t.arrivals.mean_burst_size = 8.0;
  t.arrivals.mean_intra_gap = 5 * kMillisecond;
  s.traffic = t;
  w.serial = s;
  return w;
}

ArrayStackConfig ArrayBase(std::uint64_t seed) {
  ArrayStackConfig a;
  a.array.adaptive_epoch = true;
  a.day.seed = seed;
  a.day.day_length = 45 * kMinute;
  a.day.synthetic.population = 4000;
  a.day.synthetic.theta = 1.0;
  a.day.synthetic.arrivals.mean_burst_size = 8.0;
  return a;
}

/// RAID0 over 4 members, at 4x a single drive's rate.
Workload Raid0Stripe(std::uint64_t seed) {
  Workload w;
  w.instances = 16;
  w.days_per_side = 2;
  ArrayStackConfig a = ArrayBase(seed);
  a.array.level = array::RaidLevel::kRaid0;
  a.array.members = 4;
  a.day.synthetic.write_fraction = 0.3;
  a.day.synthetic.arrivals.mean_burst_gap = 100 * kMillisecond;
  w.array = a;
  return w;
}

/// RAID1 over 2 members, write-heavy, scrub on; member 0 dies mid first
/// on-day and is reattached with resync a day later.
Workload Raid1Mirror(std::uint64_t seed) {
  Workload w;
  w.instances = 16;
  w.days_per_side = 2;
  ArrayStackConfig a = ArrayBase(seed);
  a.array.level = array::RaidLevel::kRaid1;
  a.array.members = 2;
  a.array.scrub_batch = 4;
  a.day.synthetic.write_fraction = 0.6;
  a.day.synthetic.arrivals.mean_burst_gap = 400 * kMillisecond;
  a.array.fault_plans.resize(2);
  fault::CrashPoint crash;
  crash.at_time = (5 * a.day.day_length) / 2;
  a.array.fault_plans[0].crashes.push_back(crash);
  a.quiet_from = crash.at_time - 2 * kMinute;
  a.quiet_to = crash.at_time + 3 * kMinute;
  w.array = a;
  return w;
}

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "fs_onoff") return FsOnOff(seed);
  if (name == "raid0_stripe") return Raid0Stripe(seed);
  if (name == "raid1_mirror") return Raid1Mirror(seed);
  if (name == "churn_continuous") return ChurnContinuous(seed);
  return std::nullopt;
}

/// The first instances, whose repetitions give the host timings: each
/// needs several repetitions in the window for its fastest to be found.
constexpr std::size_t kTimedInstances = 8;
/// Fewest untraced runs of the timed instances a run of `--trace 0` makes.
constexpr std::size_t kMinTimedSamples = 3;
/// Threads of the twin whose fingerprint every measured array run must
/// match. The arrays themselves run at ArrayConfig's default of one
/// thread: on a shared host a multi-threaded run's rate follows the cores
/// its neighbours leave free, and raid0 on 2 worker threads spread 0.37
/// (IQR/median over 10 seeds) against a 0.25 bound.
constexpr std::int32_t kTwinThreads = 2;

/// Seed of instance `i` of a run seeded `seed`.
std::uint64_t InstanceSeed(std::uint64_t seed, std::int32_t i) {
  return seed * 1000 + static_cast<std::uint64_t>(i);
}

/// Pools one instance's run into `total`.
void Absorb(ProtocolRun& total, ProtocolRun&& one) {
  const auto append = [](std::vector<core::DayMetrics>& dst,
                          std::vector<core::DayMetrics>& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  append(total.off_days, one.off_days);
  append(total.on_days, one.on_days);
  total.setup_s += one.setup_s;
  total.measured_s += one.measured_s;
  total.counts.Add(one.counts);
}

std::unique_ptr<Stack> MakeStack(const Workload& w, Tracer& tracer) {
  return w.serial ? MakeSerialStack(*w.serial, tracer)
                  : MakeArrayStack(*w.array, tracer);
}

// --- Output checks -------------------------------------------------------

struct Checks {
  std::int64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

std::vector<double> Fingerprint(const std::vector<core::DayMetrics>& off,
                                const std::vector<core::DayMetrics>& on) {
  std::vector<double> fp;
  for (const core::DayMetrics& d : off) AppendFingerprint(d, fp);
  for (const core::DayMetrics& d : on) AppendFingerprint(d, fp);
  return fp;
}

std::vector<double> Fingerprint(const ProtocolRun& r) {
  std::vector<double> fp = Fingerprint(r.off_days, r.on_days);
  fp.insert(fp.end(), {static_cast<double>(r.counts.lost),
                       static_cast<double>(r.counts.resyncs_completed),
                       static_cast<double>(r.counts.crashes)});
  return fp;
}

/// Fingerprint of one untraced protocol run of `w`, or nothing on error.
std::optional<std::vector<double>> RunFingerprint(const Workload& w) {
  Tracer off;
  std::unique_ptr<Stack> stack = MakeStack(w, off);
  StatusOr<ProtocolRun> run = RunProtocol(*stack, w.days_per_side, off);
  if (!run.ok()) return std::nullopt;
  return Fingerprint(*run);
}

/// The stack composed by this benchmark must reproduce the shipped day
/// runners bit for bit: core::Experiment + RunOnOffDays for the serial
/// stack, core::ArrayDayRunner + RunArrayOnOff for arrays. Returns the
/// fingerprint every measured run must match (for arrays, that of the
/// same stack at kTwinThreads threads), or nothing when no shipped runner
/// drives the workload's traffic.
std::optional<std::vector<double>> CheckEquivalence(const Workload& w,
                                                    Checks& checks) {
  if (w.array) {
    // ArrayDayRunner's traffic has no quiet window, so the comparison
    // runs without one.
    Workload plain = w;
    plain.array->quiet_from = plain.array->quiet_to = 0;
    array::ArrayDevice dev(plain.array->array);
    checks.Expect(dev.Start().ok(), "reference array start");
    core::ArrayDayRunner runner(&dev, plain.array->day);
    StatusOr<core::ArrayOnOffResult> ref =
        core::RunArrayOnOff(runner, plain.days_per_side);
    checks.Expect(ref.ok(), "reference array run");
    if (ref.ok()) {
      std::vector<double> fp = Fingerprint(ref->off_days, ref->on_days);
      fp.insert(fp.end(), {static_cast<double>(ref->lost_requests),
                           static_cast<double>(ref->resyncs_completed),
                           static_cast<double>(ref->crashes_seen)});
      checks.Expect(RunFingerprint(plain) == fp,
                    "bench-composed array stack reproduces ArrayDayRunner");
    }
    Workload twin = w;
    twin.array->array.threads = kTwinThreads;
    std::optional<std::vector<double>> twin_fp = RunFingerprint(twin);
    checks.Expect(twin_fp.has_value(),
                  "threads=" + std::to_string(kTwinThreads) + " array run");
    return twin_fp;
  }

  // Serial: the file-server composition against core::Experiment. For
  // synthetic traffic, which no shipped runner drives, the same
  // composition is checked on the workload's drive and arranger with a
  // short file-server day instead.
  SerialConfig fs = *w.serial;
  std::int32_t days_per_side = w.days_per_side;
  if (fs.traffic) {
    fs.traffic.reset();
    fs.experiment.profile.day_length = 2 * kHour;
    days_per_side = 1;
  }
  core::Experiment exp(fs.experiment);
  checks.Expect(exp.Setup().ok(), "reference experiment setup");
  StatusOr<core::OnOffResult> ref = core::RunOnOffDays(exp, days_per_side);
  checks.Expect(ref.ok(), "reference on/off run");
  if (!ref.ok()) return std::nullopt;
  const std::vector<double> fp = Fingerprint(ref->off_days, ref->on_days);
  std::vector<double> ref_counts;
  AppendCounts(exp.day_counts_all(), ref_counts);
  AppendCounts(exp.day_counts_reads(), ref_counts);

  Tracer off;
  std::unique_ptr<Stack> stack = MakeSerialStack(fs, off);
  StatusOr<ProtocolRun> run = RunProtocol(*stack, days_per_side, off);
  checks.Expect(run.ok() && Fingerprint(run->off_days, run->on_days) == fp,
                "bench-composed serial stack reproduces core::Experiment");
  checks.Expect(stack->DayCounts() == ref_counts,
                "bench-composed serial stack keeps core::Experiment's day "
                "reference counts");
  if (w.serial->traffic) return std::nullopt;
  std::vector<double> full = fp;
  full.insert(full.end(), {0.0, 0.0, 0.0});
  return full;
}

std::int64_t Completed(const ProtocolRun& r) {
  std::int64_t n = 0;
  for (const auto* days : {&r.off_days, &r.on_days}) {
    for (const core::DayMetrics& d : *days) n += d.all.count;
  }
  return n;
}

std::int64_t FailedRequests(const ProtocolRun& r) {
  std::int64_t n = 0;
  for (const auto* days : {&r.off_days, &r.on_days}) {
    for (const core::DayMetrics& d : *days) n += d.faults.failed_requests;
  }
  return n;
}

/// Output checks on one measured run.
void CheckRun(const Workload& w, const ProtocolRun& r, Checks& checks) {
  const std::int64_t completed = Completed(r);
  const std::int64_t failed = FailedRequests(r);
  const bool raid1 =
      w.array && w.array->array.level == array::RaidLevel::kRaid1;
  if (!raid1) {
    const std::int64_t expected =
        r.counts.submitted + r.counts.split_reads + r.counts.split_writes;
    const std::int64_t seen = completed + failed + r.counts.lost;
    checks.Expect(r.counts.split_unseen > 0 ? seen >= expected
                                            : seen == expected,
                  "submitted " + std::to_string(expected) +
                      " (split requests included) != completed " +
                      std::to_string(completed) + " + failed " +
                      std::to_string(failed) + " + lost " +
                      std::to_string(r.counts.lost));
  } else {
    // Mirrored writes complete once per live member, so only reads are
    // conserved exactly; every write must land on at least one member.
    std::int64_t reads = 0, writes = 0;
    for (const auto* days : {&r.off_days, &r.on_days}) {
      for (const core::DayMetrics& d : *days) {
        reads += d.reads.count;
        writes += d.writes.count;
      }
    }
    const std::int64_t submitted_writes = r.counts.submitted -
                                          r.counts.submitted_reads +
                                          r.counts.split_writes;
    checks.Expect(reads + failed + r.counts.lost ==
                      r.counts.submitted_reads + r.counts.split_reads,
                  "raid1: submitted reads " +
                      std::to_string(r.counts.submitted_reads) + " + split " +
                      std::to_string(r.counts.split_reads) +
                      " != completed " + std::to_string(reads) +
                      " + failed " + std::to_string(failed) + " + lost " +
                      std::to_string(r.counts.lost));
    checks.Expect(writes >= submitted_writes &&
                      writes <= submitted_writes * w.array->array.members,
                  "raid1: every write completed on 1.." +
                      std::to_string(w.array->array.members) + " members");
    checks.Expect(r.counts.crashes >= 1, "raid1: the member kill fired");
    checks.Expect(r.counts.resyncs_completed >= 1,
                  "raid1: the reattached member finished its resync");
    checks.Expect(r.counts.lost == 0, "raid1: no request was lost");
  }
}

// --- Metrics ---------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
  const char* better;
};

const MetricDef kEndToEnd[] = {
    {"sim_req_per_s", "req/s", "higher"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"sim_service_ms_on", "sim_ms", "lower"},
    {"sim_service_ms_p99_on", "sim_ms", "lower"},
    {"sim_wait_ms_on", "sim_ms", "lower"},
    {"sim_seek_reduction_pct", "%", "higher"},
    {"move_ios_per_pass", "io/pass", "lower"},
};

const char* const kSpanNames[] = {
    "core.day",      "workload.generate", "fs.run_day",      "driver.submit",
    "sim.advance",   "analyzer.tick",     "placement.pass",  "array.step"};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs = {
      {"workload.gen_ns_per_req", "ns/req", "lower"},
      {"workload.records", "count", "higher"},
      {"fs.day_ns_per_req", "ns/req", "lower"},
      {"fs.cache_hit_pct", "%", "higher"},
      {"fs.ops", "count", "higher"},
      {"driver.submit_ns_per_req", "ns/req", "lower"},
      {"driver.internal_ios", "count", "lower"},
      {"sim.advance_ns_per_req", "ns/req", "lower"},
      {"disk.zero_seek_pct", "%", "higher"},
      {"disk.busy_frac", "fraction", "lower"},
      {"analyzer.tick_ns_per_record", "ns/record", "lower"},
      {"analyzer.records", "count", "higher"},
      {"placement.pass_ms", "ms", "lower"},
      {"placement.moves", "count", "lower"},
      {"placement.kept_frac", "fraction", "higher"},
      {"placement.deferred", "count", "lower"},
      {"placement.move_io_s", "sim_s", "lower"},
      {"array.barriers", "count", "lower"},
      {"array.resync_granules", "count", "lower"},
  };
  for (const char* span : kSpanNames) {
    defs.push_back({std::string(span) + ".self_ms", "ms", "lower"});
  }
  defs.push_back({"trace.overhead_pct", "%", "lower"});
  return defs;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// p-th quantile of a 1 ms histogram, interpolated linearly inside the
/// bucket that holds it, in ms.
double InterpolatedPercentileMs(const stats::TimeHistogram& h, double p) {
  const std::vector<std::int64_t>& b = h.buckets();
  const double target = p * static_cast<double>(h.count());
  double cum = 0;
  const double width_ms = static_cast<double>(h.bucket_width()) / 1000.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double c = static_cast<double>(b[i]);
    if (c > 0 && cum + c >= target) {
      return width_ms * (static_cast<double>(i) + (target - cum) / c);
    }
    cum += c;
  }
  return width_ms * static_cast<double>(b.size());
}

/// Count-weighted mean of a per-day slice field.
template <typename Field>
double Pooled(const std::vector<core::DayMetrics>& days, Field field) {
  double sum = 0, n = 0;
  for (const core::DayMetrics& d : days) {
    sum += field(d.all) * static_cast<double>(d.all.count);
    n += static_cast<double>(d.all.count);
  }
  return Ratio(sum, n);
}

/// The simulated-quality metrics; deterministic for a seed.
std::map<std::string, double> QualityMetrics(const ProtocolRun& r) {
  std::map<std::string, double> m;
  stats::TimeHistogram service;
  double internal_ios = 0;
  for (const core::DayMetrics& d : r.on_days) {
    service.Merge(d.service_all);
    internal_ios += static_cast<double>(d.arrange.internal_ios);
  }
  m["sim_service_ms_on"] = Ratio(static_cast<double>(service.total()) / 1000.0,
                                 static_cast<double>(service.count()));
  m["sim_service_ms_p99_on"] = InterpolatedPercentileMs(service, 0.99);
  m["sim_wait_ms_on"] = Pooled(
      r.on_days, [](const core::SliceMetrics& s) { return s.mean_wait_ms; });
  const auto seek = [](const core::SliceMetrics& s) { return s.mean_seek_ms; };
  m["sim_seek_reduction_pct"] =
      100.0 * (1.0 - Ratio(Pooled(r.on_days, seek), Pooled(r.off_days, seek)));
  m["move_ios_per_pass"] =
      Ratio(internal_ios, static_cast<double>(r.on_days.size()));
  return m;
}

/// Per-layer metrics of one traced run.
std::map<std::string, double> LayerMetrics(const ProtocolRun& r,
                                           const Tracer& tracer) {
  const std::map<std::string, Tracer::Totals> spans = tracer.MeasuredTotals();
  const auto self_ns = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const LayerCounts& c = r.counts;
  const double req = static_cast<double>(c.submitted);
  std::map<std::string, double> m;
  m["workload.gen_ns_per_req"] = Ratio(self_ns("workload.generate"),
                                       static_cast<double>(c.workload_records));
  m["workload.records"] = static_cast<double>(c.workload_records);
  m["fs.day_ns_per_req"] = c.fs_ops > 0 ? Ratio(self_ns("fs.run_day"), req) : 0;
  m["fs.cache_hit_pct"] =
      100.0 * Ratio(static_cast<double>(c.cache_hits),
                    static_cast<double>(c.cache_hits + c.cache_misses));
  m["fs.ops"] = static_cast<double>(c.fs_ops);
  m["driver.submit_ns_per_req"] = Ratio(self_ns("driver.submit"), req);
  m["driver.internal_ios"] = static_cast<double>(c.internal_ios);
  m["sim.advance_ns_per_req"] =
      Ratio(self_ns("sim.advance") + self_ns("array.step"), req);
  m["analyzer.tick_ns_per_record"] = Ratio(
      self_ns("analyzer.tick"), static_cast<double>(c.analyzer_records));
  m["analyzer.records"] = static_cast<double>(c.analyzer_records);

  double zero_seek = 0, count = 0, busy = 0, elapsed = 0;
  double moves = 0, kept = 0, planned = 0, deferred = 0, move_io = 0;
  double barriers = 0;
  for (const auto* days : {&r.off_days, &r.on_days}) {
    for (const core::DayMetrics& d : *days) {
      zero_seek += d.all.zero_seek_pct * static_cast<double>(d.all.count);
      count += static_cast<double>(d.all.count);
      busy += static_cast<double>(d.util.external_busy + d.util.internal_busy);
      elapsed += static_cast<double>(d.elapsed);
      const placement::ArrangeResult& a = d.arrange;
      moves += a.copied + a.shuffled + a.evicted;
      move_io += MicrosToSeconds(a.io_time);
      barriers += static_cast<double>(d.barriers);
    }
  }
  for (const core::DayMetrics& d : r.on_days) {
    const placement::ArrangeResult& a = d.arrange;
    kept += a.kept;
    planned +=
        a.kept + a.copied + a.shuffled + a.evicted + a.skipped + a.deferred;
    deferred += a.deferred;
  }
  m["disk.zero_seek_pct"] = Ratio(zero_seek, count);
  m["disk.busy_frac"] = Ratio(busy, elapsed);
  const auto pass = spans.find("placement.pass");
  m["placement.pass_ms"] =
      pass == spans.end()
          ? 0
          : Ratio(static_cast<double>(pass->second.total_ns) / 1e6,
                  static_cast<double>(pass->second.count));
  m["placement.moves"] = moves;
  m["placement.kept_frac"] = Ratio(kept, planned);
  m["placement.deferred"] = deferred;
  m["placement.move_io_s"] = move_io;
  m["array.barriers"] = barriers;
  m["array.resync_granules"] = static_cast<double>(c.resync_granules);
  for (const char* s : kSpanNames) {
    m[std::string(s) + ".self_ms"] = self_ns(s) / 1e6;
  }
  return m;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Main ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<MetricDef>& defs,
               const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(),
                values.at(defs[i].name), defs[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  std::vector<Workload> instances;
  for (std::int32_t i = 0;; ++i) {
    std::optional<Workload> w =
        MakeWorkload(args.workload, InstanceSeed(args.seed, i));
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s' (fs_onoff, raid0_stripe, "
                   "raid1_mirror, churn_continuous)\n", args.workload.c_str());
      return 2;
    }
    const std::int32_t count = w->instances;
    instances.push_back(std::move(*w));
    if (i + 1 >= count) break;
  }

  Checks checks;
  const std::optional<std::vector<double>> reference =
      CheckEquivalence(instances.front(), checks);

  // Runs build and run instances on fresh stacks. Run 0 warms the process
  // up on the timed instances and is not measured (a cold first run
  // measured up to 20% slower). Run 1 covers every instance and gives the
  // simulated metrics. Later runs repeat only the timed instances until
  // the window is spent, so each gets many timing samples. In trace mode
  // they alternate traced and untraced, so the overhead compares runs made
  // under the same conditions.
  //
  // Host timings keep each timed instance's fastest untraced repetition:
  // the repetitions simulate exactly the same thing, and other load on a
  // shared host only ever slows one down. On a 4-vCPU VM whose neighbours
  // slowed runs by up to 1.7x for tens of seconds at a time, the spread
  // of 8 processes' rates was 0.20 (IQR/median) taking the median run and
  // 0.08 taking the fastest.
  Tracer tracer;
  std::optional<ProtocolRun> quality;
  const std::size_t timed = std::min(instances.size(), kTimedInstances);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best_measured(timed, inf), best_setup(timed, inf);
  std::vector<std::int64_t> completed(timed, 0);
  std::vector<std::vector<double>> first_fp(instances.size());
  std::vector<double> plain_measured, traced_measured;  // repeat runs
  std::vector<std::map<std::string, double>> layers;
  std::vector<SpanRecord> last_spans;
  std::int64_t attempted = 0, failed = 0;
  std::size_t samples = 0;  // untraced runs of the timed instances
  auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool warmup = rep == 0;
    const bool full = rep == 1;
    const bool traced = args.trace && rep >= 2 && rep % 2 == 0;
    tracer.Clear();
    tracer.set_enabled(traced);
    ProtocolRun pooled;
    const std::size_t count = full ? instances.size() : timed;
    for (std::size_t i = 0; i < count; ++i) {
      const Workload& w = instances[i];
      // Hand the last stack's freed memory back to the kernel, so every
      // set-up faults its memory in as a fresh process does. Otherwise
      // glibc's moving mmap threshold decides per process whether set-up
      // recycles the heap: raid1_mirror set-up took 1.1 or 2.2 ms by
      // process on a 4-vCPU Xeon VM.
      malloc_trim(0);
      std::unique_ptr<Stack> stack = MakeStack(w, tracer);
      StatusOr<ProtocolRun> run = RunProtocol(*stack, w.days_per_side, tracer);
      stack.reset();
      if (!run.ok()) {
        std::fprintf(stderr, "run failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      CheckRun(w, *run, checks);
      const std::vector<double> instance_fp = Fingerprint(*run);
      if (i == 0 && reference) {
        checks.Expect(instance_fp == *reference,
                      w.array ? "measured run matches the threads=" +
                                    std::to_string(kTwinThreads) + " run"
                              : std::string("measured run matches "
                                            "core::Experiment"));
      }
      if (first_fp[i].empty()) first_fp[i] = instance_fp;
      checks.Expect(instance_fp == first_fp[i],
                    "instance " + std::to_string(i) +
                        ": simulated fingerprint repeats");
      if (!traced && !warmup && i < timed) {
        completed[i] = Completed(*run);
        best_measured[i] = std::min(best_measured[i], run->measured_s);
        best_setup[i] = std::min(best_setup[i], run->setup_s);
      }
      Absorb(pooled, std::move(*run));
    }
    attempted += pooled.counts.submitted;
    failed += FailedRequests(pooled) + pooled.counts.lost;
    if (warmup) {
      start = std::chrono::steady_clock::now();
      continue;
    }
    std::fprintf(stderr, "run %zu%s: %.6g req/s, set-up %.4g ms per stack\n",
                 rep, traced ? " (traced)" : "",
                 static_cast<double>(Completed(pooled)) / pooled.measured_s,
                 1e3 * pooled.setup_s / static_cast<double>(count));
    if (full) {
      quality = std::move(pooled);
      ++samples;
    } else if (traced) {
      layers.push_back(LayerMetrics(pooled, tracer));
      traced_measured.push_back(pooled.measured_s);
      last_spans = tracer.spans();
    } else {
      ++samples;
      plain_measured.push_back(pooled.measured_s);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const bool enough = args.trace
                            ? layers.size() >= 2 && plain_measured.size() >= 2
                            : samples >= kMinTimedSamples;
    if (elapsed >= args.seconds && enough) break;
  }
  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  if (!args.trace) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < timed; ++i) {
      rates.push_back(static_cast<double>(completed[i]) / best_measured[i]);
    }
    values = QualityMetrics(*quality);
    values["sim_req_per_s"] = Median(rates);
    values["setup_s"] = Median(best_setup);
    values["peak_rss_mb"] = PeakRssMb();
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  } else {
    for (const auto& [name, unused] : layers.front()) {
      std::vector<double> v;
      for (const auto& l : layers) v.push_back(l.at(name));
      values[name] = Median(v);
    }
    values["trace.overhead_pct"] =
        100.0 * (Ratio(Median(traced_measured), Median(plain_measured)) - 1.0);
    defs = PerLayerDefs();
    if (!args.spans_path.empty()) {
      checks.Expect(WriteSpans(last_spans, args.spans_path),
                    "spans written to " + args.spans_path);
    }
  }

  failed += checks.failed;
  const bool correct = checks.failed == 0;
  std::printf("workload=%s seed=%llu instances=%zu timed=%zu samples=%zu "
              "traced=%zu attempted=%lld failed=%lld failed_frac=%.3g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              instances.size(), timed, samples, layers.size(),
              static_cast<long long>(attempted), static_cast<long long>(failed),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  for (const MetricDef& d : defs) {
    std::printf("  %-28s %16.6g %-10s %s is better\n", d.name.c_str(),
                values.at(d.name), d.unit, d.better);
  }
  PrintJson(correct, attempted, failed, defs, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
