// bench_paper: the paper's evaluation (Section 5: Tables 1-10 and Figures
// 4-8) and the ablations beyond it, one id per table, figure or ablation.
//
//   bench_paper <id>
//
// Each id prints the paper's reference numbers (where the paper gives
// them) next to this reproduction's, then checks the shape the paper's
// text claims for them. Every run is deterministic and reads no argument
// but the id; tests/golden/paper/<id>.txt pins each id's stdout byte for
// byte. A missing or unknown id prints the id list and exits 2.

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analyzer/exact_counter.h"
#include "analyzer/space_saving_counter.h"
#include "baselines/cylinder_shuffle.h"
#include "baselines/file_temperature.h"
#include "bench/bench_util.h"
#include "core/adaptive_system.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/onoff.h"
#include "disk/drive_spec.h"
#include "placement/policy.h"
#include "stats/summary.h"
#include "util/table.h"
#include "workload/replay.h"
#include "workload/synthetic.h"

namespace {

using namespace abr;
using namespace abr::bench;

using MakeConfig = core::ExperimentConfig (*)();
using Slice = core::OnOffResult::Slice;

constexpr const char* kDisks[2] = {"Toshiba", "Fujitsu"};

// ---------------------------------------------------------------------------
// Shape checks. Each comparison a shape sentence states prints one line:
// PASS or FAIL, the claim in its own words, then the numbers compared. A
// claim is judged on its values as the tables print them, so a reader can
// check the verdict by eye. Where a sentence gives only a vague size
// ("roughly a third", "much smaller") the line checks the direction and
// prints the size. A sentence that quotes the paper's number, or explains
// rather than compares, prints a NOTE. A FAIL leaves the exit status at 0:
// the goldens pin the verdicts, so a claim that starts or stops holding
// changes a golden.

/// `v` as a table prints it with `decimals` decimals.
double Printed(double v, int decimals = 2) {
  return std::strtod(Table::Fmt(v, decimals).c_str(), nullptr);
}

/// The relative change from `before` to `after` in percent, to one
/// decimal (a reduction is negative).
double ChangePct(double before, double after) {
  return Printed(100.0 * (after - before) / before, 1);
}

/// printf into a string (a shape line's numbers).
[[gnu::format(printf, 1, 2)]] std::string Str(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// "<what> <before> -> <after> ms (<change>%)".
std::string BeforeAfter(const std::string& what, double before,
                        double after) {
  return Str("%s %.2f -> %.2f ms (%+.1f%%)", what.c_str(), before, after,
             ChangePct(before, after));
}

void ShapeChecks() { std::printf("\nShape checks:\n"); }

void Claim(bool holds, const char* words, const std::string& numbers) {
  std::printf("%s  %s: %s\n", holds ? "PASS" : "FAIL", words,
              numbers.c_str());
}

void Note(const char* words, const std::string& numbers) {
  std::printf("NOTE  %s: %s\n", words, numbers.c_str());
}

// ---------------------------------------------------------------------------
// Table 1 — the drive models.

void Table1() {
  Banner("Table 1 — drive specifications");
  {
    Table t({"", "Toshiba MK156F", "Fujitsu M2266"});
    const disk::DriveSpec toshiba = disk::DriveSpec::ToshibaMK156F();
    const disk::DriveSpec fujitsu = disk::DriveSpec::FujitsuM2266();
    t.AddRow({"Capacity (MB)",
              Table::Fmt(toshiba.geometry.capacity_bytes() / 1000000.0, 0),
              Table::Fmt(fujitsu.geometry.capacity_bytes() / 1000000.0, 0)});
    t.AddRow({"Cylinders", Table::Fmt((std::int64_t)toshiba.geometry.cylinders),
              Table::Fmt((std::int64_t)fujitsu.geometry.cylinders)});
    t.AddRow({"Tracks/Cyln",
              Table::Fmt((std::int64_t)toshiba.geometry.tracks_per_cylinder),
              Table::Fmt((std::int64_t)fujitsu.geometry.tracks_per_cylinder)});
    t.AddRow({"Sectors/Track",
              Table::Fmt((std::int64_t)toshiba.geometry.sectors_per_track),
              Table::Fmt((std::int64_t)fujitsu.geometry.sectors_per_track)});
    t.AddRow({"Speed (RPM)", Table::Fmt((std::int64_t)toshiba.geometry.rpm),
              Table::Fmt((std::int64_t)fujitsu.geometry.rpm)});
    t.AddRow({"Track buffer (KB)",
              Table::Fmt(toshiba.track_buffer_bytes / 1024),
              Table::Fmt(fujitsu.track_buffer_bytes / 1024)});
    t.AddRow({"Revolution (ms)",
              Table::Fmt(MicrosToMillis(toshiba.geometry.rotation_time()), 2),
              Table::Fmt(MicrosToMillis(fujitsu.geometry.rotation_time()), 2)});
    std::printf("%s", t.ToString().c_str());
  }

  Banner("Table 1 — seek-time functions, sampled (ms)");
  {
    const disk::SeekModel toshiba = disk::SeekModel::ToshibaMK156F();
    const disk::SeekModel fujitsu = disk::SeekModel::FujitsuM2266();
    Table t({"distance (cyl)", "Toshiba", "Fujitsu"});
    for (std::int64_t d : {0, 1, 2, 5, 10, 50, 100, 225, 315, 500, 814}) {
      t.AddRow({Table::Fmt(d), Table::Fmt(toshiba.Millis(d), 3),
                d <= fujitsu.max_distance()
                    ? Table::Fmt(fujitsu.Millis(d), 3)
                    : std::string("-")});
    }
    t.AddRow({"1657", "-", Table::Fmt(fujitsu.Millis(1657), 3)});
    std::printf("%s", t.ToString().c_str());
  }

  std::printf(
      "\nSpot checks against the closed forms: Toshiba seektime(315) =\n"
      "17.503 + 0.03*315 = %.3f ms; Fujitsu seektime(226) = 7.44 +\n"
      "0.0114*226 = %.3f ms.\n",
      17.503 + 0.03 * 315, 7.44 + 0.0114 * 226);
}

// ---------------------------------------------------------------------------
// On/off summaries (Tables 2, 4, 5 and 6): the minimum, average and
// maximum of the daily mean seek, service and waiting times over
// alternating "off" and "on" days, on both disks, for one slice.

Table MakeSummaryTable() {
  return Table({"Disk", "On/Off", "seek min", "seek avg", "seek max",
                "svc min", "svc avg", "svc max", "wait min", "wait avg",
                "wait max"});
}

void AddSummaryRow(Table& t, const std::string& disk, const char* on_off,
                   const core::SummaryRow& row) {
  t.AddRow({disk, on_off, Table::Fmt(row.seek_ms.min()),
            Table::Fmt(row.seek_ms.avg()), Table::Fmt(row.seek_ms.max()),
            Table::Fmt(row.service_ms.min()), Table::Fmt(row.service_ms.avg()),
            Table::Fmt(row.service_ms.max()), Table::Fmt(row.wait_ms.min()),
            Table::Fmt(row.wait_ms.avg()), Table::Fmt(row.wait_ms.max())});
}

using OnOffRuns = std::array<core::OnOffResult, 2>;  // Toshiba, Fujitsu

/// Runs the on/off protocol on both disks: five days per side, six on the
/// Toshiba for the users fs.
OnOffRuns RunOnOffPair(bool users) {
  const MakeConfig configs[2] = {
      users ? &core::ExperimentConfig::ToshibaUsers
            : &core::ExperimentConfig::ToshibaSystem,
      users ? &core::ExperimentConfig::FujitsuUsers
            : &core::ExperimentConfig::FujitsuSystem};
  OnOffRuns runs;
  for (int d = 0; d < 2; ++d) {
    core::Experiment exp(configs[d]());
    runs[d] = CheckOk(core::RunOnOff(exp, users && d == 0 ? 6 : 5),
                      "on/off run");
  }
  return runs;
}

/// One slice's averages of the daily means, off ([0]) and on ([1]), as the
/// summary tables print them.
struct OnOffAvg {
  double seek[2], service[2], wait[2];
};

OnOffAvg Averages(const core::OnOffResult& result, Slice slice) {
  OnOffAvg a;
  const core::SummaryRow rows[2] = {
      core::OnOffResult::Summarize(result.off_days, slice),
      core::OnOffResult::Summarize(result.on_days, slice)};
  for (int s = 0; s < 2; ++s) {
    a.seek[s] = Printed(rows[s].seek_ms.avg());
    a.service[s] = Printed(rows[s].service_ms.avg());
    a.wait[s] = Printed(rows[s].wait_ms.avg());
  }
  return a;
}

/// The relative off-to-on change of the mean seek time.
double SeekChange(const OnOffAvg& a) { return ChangePct(a.seek[0], a.seek[1]); }

struct OnOffTable {
  const char* paper_title;
  const char* title;
  bool users;  // the users file system (Tables 5, 6), else the system fs
  Slice slice;
  // Toshiba off, Toshiba on, Fujitsu off, Fujitsu on: seek, service and
  // waiting min/avg/max, as the paper prints them.
  const char* paper[4][9];
  void (*claims)(const OnOffRuns& runs);
};

void RunOnOffTable(const OnOffTable& spec) {
  static const char* const kSides[2] = {"Off", "On"};
  Banner(spec.paper_title);
  {
    Table t = MakeSummaryTable();
    for (int r = 0; r < 4; ++r) {
      std::vector<std::string> cells{kDisks[r / 2], kSides[r % 2]};
      for (const char* c : spec.paper[r]) cells.emplace_back(c);
      t.AddRow(std::move(cells));
    }
    std::printf("%s", t.ToString().c_str());
  }

  Banner(spec.title);
  const OnOffRuns runs = RunOnOffPair(spec.users);
  Table t = MakeSummaryTable();
  for (int d = 0; d < 2; ++d) {
    AddSummaryRow(t, kDisks[d], "Off",
                  core::OnOffResult::Summarize(runs[d].off_days, spec.slice));
    AddSummaryRow(t, kDisks[d], "On",
                  core::OnOffResult::Summarize(runs[d].on_days, spec.slice));
  }
  std::printf("%s", t.ToString().c_str());
  ShapeChecks();
  spec.claims(runs);
}

void Table2Claims(const OnOffRuns& runs) {
  OnOffAvg a[2];
  for (int d = 0; d < 2; ++d) a[d] = Averages(runs[d], Slice::kAll);
  for (int d = 0; d < 2; ++d) {
    Claim(a[d].seek[1] < a[d].seek[0],
          "\"on\" seek times should drop by a large factor",
          Str("%s %.2f -> %.2f ms (%.1fx)", kDisks[d], a[d].seek[0],
              a[d].seek[1], a[d].seek[0] / a[d].seek[1]));
  }
  for (int d = 0; d < 2; ++d) {
    Claim(a[d].service[1] < a[d].service[0],
          "service times drop by roughly a third",
          BeforeAfter(kDisks[d], a[d].service[0], a[d].service[1]));
  }
  for (int d = 0; d < 2; ++d) {
    Claim(a[d].wait[1] < a[d].wait[0], "waiting times drop substantially",
          BeforeAfter(kDisks[d], a[d].wait[0], a[d].wait[1]));
  }
}

void Table4Claims(const OnOffRuns& runs) {
  OnOffAvg reads[2], all[2];
  for (int d = 0; d < 2; ++d) {
    reads[d] = Averages(runs[d], Slice::kReads);
    all[d] = Averages(runs[d], Slice::kAll);
  }
  for (int d = 0; d < 2; ++d) {
    Claim(reads[d].seek[1] < reads[d].seek[0],
          "read seek-time reductions are real",
          BeforeAfter(Str("%s reads", kDisks[d]), reads[d].seek[0],
                      reads[d].seek[1]));
  }
  for (int d = 0; d < 2; ++d) {
    Claim(SeekChange(reads[d]) > SeekChange(all[d]),
          "read seek-time reductions are smaller than for the whole "
          "workload",
          Str("%s reads %+.1f%% against all %+.1f%%", kDisks[d],
              SeekChange(reads[d]), SeekChange(all[d])));
  }
  for (int d = 0; d < 2; ++d) {
    Claim(reads[d].wait[0] < all[d].wait[0] &&
              reads[d].wait[1] < all[d].wait[1],
          "read waiting times are small on both sides",
          Str("%s reads wait %.2f/%.2f ms off/on against %.2f/%.2f ms for "
              "all requests",
              kDisks[d], reads[d].wait[0], reads[d].wait[1], all[d].wait[0],
              all[d].wait[1]));
  }
}

void Table5Claims(const OnOffRuns& runs) {
  const OnOffRuns system = RunOnOffPair(/*users=*/false);
  OnOffAvg users[2], sys[2];
  for (int d = 0; d < 2; ++d) {
    users[d] = Averages(runs[d], Slice::kAll);
    sys[d] = Averages(system[d], Slice::kAll);
  }
  for (int d = 0; d < 2; ++d) {
    Claim(users[d].seek[1] < users[d].seek[0], "rearrangement still helps",
          BeforeAfter(Str("%s seek", kDisks[d]), users[d].seek[0],
                      users[d].seek[1]));
  }
  for (int d = 0; d < 2; ++d) {
    Claim(SeekChange(users[d]) > SeekChange(sys[d]),
          "the relative seek reduction is much smaller than on the system "
          "file system",
          Str("%s %+.1f%% against %+.1f%% on the system fs", kDisks[d],
              SeekChange(users[d]), SeekChange(sys[d])));
  }
  Note("~30-35% in the paper vs ~90% there",
       Str("ours %+.1f%% vs %+.1f%% on the Toshiba, %+.1f%% vs %+.1f%% on "
           "the Fujitsu",
           SeekChange(users[0]), SeekChange(sys[0]), SeekChange(users[1]),
           SeekChange(sys[1])));
}

void Table6Claims(const OnOffRuns& runs) {
  for (int d = 0; d < 2; ++d) {
    const OnOffAvg reads = Averages(runs[d], Slice::kReads);
    const OnOffAvg all = Averages(runs[d], Slice::kAll);
    Claim(SeekChange(reads) < SeekChange(all),
          "the relative read seek reduction here exceeds the all-requests "
          "reduction of Table 5",
          Str("%s reads %+.1f%% against all %+.1f%%", kDisks[d],
              SeekChange(reads), SeekChange(all)));
  }
}

constexpr OnOffTable kTable2 = {
    "Table 2 — paper reference (system file system, all requests)",
    "Table 2 — this reproduction",
    false,
    Slice::kAll,
    {{"18.70", "19.46", "21.51", "38.41", "39.78", "41.71", "65.39", "82.73",
      "94.52"},
     {"0.98", "1.17", "1.55", "22.61", "22.88", "23.34", "40.39", "46.43",
      "51.13"},
     {"7.80", "8.14", "8.67", "21.26", "21.60", "22.04", "61.35", "66.57",
      "72.69"},
     {"0.70", "0.91", "1.16", "13.83", "14.18", "14.41", "35.65", "45.31",
      "52.52"}},
    Table2Claims};

constexpr OnOffTable kTable4 = {
    "Table 4 — paper reference (system fs, read requests only)",
    "Table 4 — this reproduction",
    false,
    Slice::kReads,
    {{"12.46", "14.31", "16.60", "30.50", "32.80", "35.32", "4.48", "5.80",
      "6.86"},
     {"3.54", "3.89", "4.49", "22.57", "23.59", "24.03", "4.46", "4.97",
      "5.47"},
     {"7.52", "7.79", "8.02", "19.69", "20.29", "21.48", "3.21", "4.72",
      "7.59"},
     {"1.32", "1.58", "1.89", "12.34", "12.87", "13.41", "2.54", "2.98",
      "3.32"}},
    Table4Claims};

constexpr OnOffTable kTable5 = {
    "Table 5 — paper reference (users file system, all requests)",
    "Table 5 — this reproduction",
    true,
    Slice::kAll,
    {{"11.06", "13.10", "15.45", "28.83", "31.14", "34.06", "8.32", "16.86",
      "31.93"},
     {"8.10", "8.90", "10.78", "26.08", "27.32", "29.54", "4.74", "10.18",
      "18.63"},
     {"3.27", "4.27", "4.79", "16.23", "17.00", "17.37", "4.33", "15.19",
      "48.96"},
     {"1.76", "2.73", "3.92", "14.04", "15.12", "16.13", "3.53", "5.83",
      "8.75"}},
    Table5Claims};

constexpr OnOffTable kTable6 = {
    "Table 6 — paper reference (users fs, read requests only)",
    "Table 6 — this reproduction",
    true,
    Slice::kReads,
    {{"11.97", "15.38", "17.73", "30.03", "32.90", "35.29", "1.18", "5.16",
      "16.87"},
     {"6.67", "8.40", "9.64", "25.35", "26.48", "27.79", "0.73", "2.48",
      "4.19"},
     {"4.95", "5.98", "7.13", "16.62", "17.59", "18.00", "1.30", "3.01",
      "7.21"},
     {"2.05", "2.44", "2.74", "13.12", "13.84", "14.51", "0.99", "2.04",
      "4.05"}},
    Table6Claims};

// ---------------------------------------------------------------------------
// Table 3 — one "off" day then one "on" day in detail.

void Table3() {
  Banner("Table 3 — paper reference (system file system)");
  {
    Table t({"Disk", "", "Day 1 (Off)", "Day 2 (On)"});
    t.AddRow({"Toshiba", "FCFS Mean Seek Dist (cyln)", "220", "225"});
    t.AddRow({"Toshiba", "Mean Seek Distance (cyln)", "173", "8"});
    t.AddRow({"Toshiba", "Zero-length Seeks (%)", "23", "88"});
    t.AddRow({"Toshiba", "FCFS Mean Seek Time (ms)", "20.92", "21.46"});
    t.AddRow({"Toshiba", "Mean Seek Time (ms)", "18.21", "1.55"});
    t.AddRow({"Toshiba", "Mean Service Time (ms)", "38.41", "22.95"});
    t.AddRow({"Toshiba", "Mean Waiting Time (ms)", "87.30", "50.03"});
    t.AddSeparator();
    t.AddRow({"Fujitsu", "FCFS Mean Seek Dist (cyln)", "435", "413"});
    t.AddRow({"Fujitsu", "Mean Seek Distance (cyln)", "315", "27"});
    t.AddRow({"Fujitsu", "Zero-length Seeks (%)", "27", "76"});
    t.AddRow({"Fujitsu", "FCFS Mean Seek Time (ms)", "10.31", "9.73"});
    t.AddRow({"Fujitsu", "Mean Seek Time (ms)", "8.01", "1.16"});
    t.AddRow({"Fujitsu", "Mean Service Time (ms)", "21.15", "14.08"});
    t.AddRow({"Fujitsu", "Mean Waiting Time (ms)", "69.98", "35.65"});
    std::printf("%s", t.ToString().c_str());
  }

  Banner("Table 3 — this reproduction");
  Table t({"Disk", "", "Day 1 (Off)", "Day 2 (On)"});
  for (const auto& [name, make] :
       {std::pair{"Toshiba", &core::ExperimentConfig::ToshibaSystem},
        std::pair{"Fujitsu", &core::ExperimentConfig::FujitsuSystem}}) {
    if (std::strcmp(name, "Fujitsu") == 0) t.AddSeparator();
    core::Experiment exp(make());
    const core::OnOffResult result =
        CheckOk(core::RunOnOff(exp, /*days_per_side=*/1), "on/off run");
    const core::SliceMetrics& off = result.off_days.front().all;
    const core::SliceMetrics& on = result.on_days.front().all;
    auto row = [&](const char* label, double off_v, double on_v, int dec) {
      t.AddRow({name, label, Table::Fmt(off_v, dec), Table::Fmt(on_v, dec)});
    };
    row("FCFS Mean Seek Dist (cyln)", off.fcfs_seek_dist, on.fcfs_seek_dist,
        0);
    row("Mean Seek Distance (cyln)", off.mean_seek_dist, on.mean_seek_dist,
        0);
    row("Zero-length Seeks (%)", off.zero_seek_pct, on.zero_seek_pct, 0);
    row("FCFS Mean Seek Time (ms)", off.fcfs_seek_ms, on.fcfs_seek_ms, 2);
    row("Mean Seek Time (ms)", off.mean_seek_ms, on.mean_seek_ms, 2);
    row("Mean Service Time (ms)", off.mean_service_ms, on.mean_service_ms, 2);
    row("Mean Waiting Time (ms)", off.mean_wait_ms, on.mean_wait_ms, 2);
  }
  std::printf("%s", t.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Placement policies (Tables 7-10 and the staggered extension).

/// Runs `days` consecutive rearranged ("on") days under one placement
/// policy, after one unmeasured warm-up day that seeds the reference
/// counts. Each day's rearrangement uses the previous day's counts, as in
/// the paper's procedure.
std::vector<core::DayMetrics> RunPolicyDays(core::ExperimentConfig config,
                                            placement::PolicyKind kind,
                                            std::int32_t days) {
  config.system.policy = kind;
  core::Experiment exp(std::move(config));
  CheckOk(exp.Setup(), "setup");
  CheckOk(exp.RunMeasuredDay().status(), "warm-up day");
  std::vector<core::DayMetrics> out;
  for (std::int32_t i = 0; i < days; ++i) {
    CheckOk(exp.RearrangeForNextDay(), "rearrange");
    exp.AdvanceWorkloadDay();
    out.push_back(CheckOk(exp.RunMeasuredDay(), "measured day"));
  }
  return out;
}

/// Percentage reduction of the daily mean seek time relative to the seek
/// time FCFS service with no rearrangement would have shown (the metric of
/// Table 7), averaged over the days.
double MeanSeekReductionPct(const std::vector<core::DayMetrics>& days,
                            bool reads_only) {
  double sum = 0;
  for (const core::DayMetrics& d : days) {
    const core::SliceMetrics& m = reads_only ? d.reads : d.all;
    if (m.fcfs_seek_ms > 0) {
      sum += 100.0 * (m.fcfs_seek_ms - m.mean_seek_ms) / m.fcfs_seek_ms;
    }
  }
  return days.empty() ? 0.0 : sum / static_cast<double>(days.size());
}

constexpr placement::PolicyKind kPolicies[3] = {
    placement::PolicyKind::kOrganPipe, placement::PolicyKind::kInterleaved,
    placement::PolicyKind::kSerial};

void Table7() {
  Banner("Table 7 — paper reference (system fs, % seek-time reduction)");
  {
    Table t({"Disk", "OP all", "IL all", "SER all", "OP reads", "IL reads",
             "SER reads"});
    t.AddRow({"Toshiba", "95", "87", "58", "76", "62", "40"});
    t.AddRow({"Fujitsu", "90", "88", "76", "78", "77", "65"});
    std::printf("%s", t.ToString().c_str());
  }

  Banner("Table 7 — this reproduction");
  Table t({"Disk", "OP all", "IL all", "SER all", "OP reads", "IL reads",
           "SER reads"});
  const MakeConfig configs[2] = {&core::ExperimentConfig::ToshibaSystem,
                                 &core::ExperimentConfig::FujitsuSystem};
  // [disk][slice: all, reads][policy], as printed.
  double cut[2][2][3];
  for (int d = 0; d < 2; ++d) {
    for (int p = 0; p < 3; ++p) {
      const std::vector<core::DayMetrics> days =
          RunPolicyDays(configs[d](), kPolicies[p], /*days=*/3);
      cut[d][0][p] = Printed(MeanSeekReductionPct(days, false), 0);
      cut[d][1][p] = Printed(MeanSeekReductionPct(days, true), 0);
    }
    t.AddRow({kDisks[d], Table::Fmt(cut[d][0][0], 0),
              Table::Fmt(cut[d][0][1], 0), Table::Fmt(cut[d][0][2], 0),
              Table::Fmt(cut[d][1][0], 0), Table::Fmt(cut[d][1][1], 0),
              Table::Fmt(cut[d][1][2], 0)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  Note("organ-pipe and interleaved perform comparably",
       Str("OP/IL %.0f/%.0f all and %.0f/%.0f reads on the Toshiba, "
           "%.0f/%.0f and %.0f/%.0f on the Fujitsu",
           cut[0][0][0], cut[0][0][1], cut[0][1][0], cut[0][1][1],
           cut[1][0][0], cut[1][0][1], cut[1][1][0], cut[1][1][1]));
  for (int d = 0; d < 2; ++d) {
    for (int slice = 0; slice < 2; ++slice) {
      const double* c = cut[d][slice];
      Claim(c[0] > c[2] && c[1] > c[2], "both beat serial",
            Str("%s %s OP %.0f, IL %.0f against SER %.0f", kDisks[d],
                slice == 0 ? "all" : "reads", c[0], c[1], c[2]));
    }
  }
}

// Tables 8 and 9: one rearranged day per policy in detail.

/// One row of a policy-detail table as printed: OP, IL and SER, all
/// requests then reads.
struct PolicyRow {
  double v[6];
  double all(int p) const { return v[2 * p]; }
  double reads(int p) const { return v[2 * p + 1]; }
};

struct PolicyDetailTable {
  const char* paper_title;
  const char* title;
  MakeConfig make;
  // Seven metric rows of OP, IL and SER, all requests then reads.
  const char* paper[7][6];
  // Gets the printed mean seek time and zero-length-seek share rows.
  void (*claims)(const PolicyRow& seek, const PolicyRow& zero);
};

constexpr const char* kDetailMetrics[7] = {
    "FCFS Mean Seek Dist (cyln)", "Mean Seek Distance (cyln)",
    "Zero-length Seeks (%)",      "FCFS Mean Seek Time (ms)",
    "Mean Seek Time (ms)",        "Mean Service Time (ms)",
    "Mean Waiting Time (ms)"};

Table MakeDetailTable() {
  return Table({"", "OP all", "OP reads", "IL all", "IL reads", "SER all",
                "SER reads"});
}

void RunPolicyDetailTable(const PolicyDetailTable& spec) {
  Banner(spec.paper_title);
  {
    Table t = MakeDetailTable();
    for (int r = 0; r < 7; ++r) {
      std::vector<std::string> cells{kDetailMetrics[r]};
      for (const char* c : spec.paper[r]) cells.emplace_back(c);
      t.AddRow(std::move(cells));
    }
    std::printf("%s", t.ToString().c_str());
  }

  core::DayMetrics days[3];
  for (int p = 0; p < 3; ++p) {
    days[p] = RunPolicyDays(spec.make(), kPolicies[p], /*days=*/1).front();
  }
  Banner(spec.title);
  Table t = MakeDetailTable();
  auto add = [&](int metric, double (*get)(const core::SliceMetrics&),
                 int decimals) {
    PolicyRow row;
    std::vector<std::string> cells{kDetailMetrics[metric]};
    for (int p = 0; p < 3; ++p) {
      row.v[2 * p] = Printed(get(days[p].all), decimals);
      row.v[2 * p + 1] = Printed(get(days[p].reads), decimals);
      cells.push_back(Table::Fmt(row.v[2 * p], decimals));
      cells.push_back(Table::Fmt(row.v[2 * p + 1], decimals));
    }
    t.AddRow(std::move(cells));
    return row;
  };
  add(0, [](const core::SliceMetrics& m) { return m.fcfs_seek_dist; }, 0);
  add(1, [](const core::SliceMetrics& m) { return m.mean_seek_dist; }, 0);
  const PolicyRow zero =
      add(2, [](const core::SliceMetrics& m) { return m.zero_seek_pct; }, 0);
  add(3, [](const core::SliceMetrics& m) { return m.fcfs_seek_ms; }, 2);
  const PolicyRow seek =
      add(4, [](const core::SliceMetrics& m) { return m.mean_seek_ms; }, 2);
  add(5, [](const core::SliceMetrics& m) { return m.mean_service_ms; }, 2);
  add(6, [](const core::SliceMetrics& m) { return m.mean_wait_ms; }, 2);
  std::printf("%s", t.ToString().c_str());
  ShapeChecks();
  spec.claims(seek, zero);
}

constexpr const char* kSlices[2] = {"all", "reads"};
constexpr int kOP = 0, kIL = 1, kSER = 2;

double Of(const PolicyRow& row, int slice, int p) {
  return slice == 0 ? row.all(p) : row.reads(p);
}

/// Serial's zero-length-seek share below both frequency-aware policies'.
void SerialZeroClaim(const char* words, const PolicyRow& zero) {
  for (int sl = 0; sl < 2; ++sl) {
    Claim(Of(zero, sl, kSER) < Of(zero, sl, kOP) &&
              Of(zero, sl, kSER) < Of(zero, sl, kIL),
          words,
          Str("%s SER %.0f%% against OP %.0f%%, IL %.0f%%", kSlices[sl],
              Of(zero, sl, kSER), Of(zero, sl, kOP), Of(zero, sl, kIL)));
  }
}

void Table8Claims(const PolicyRow& seek, const PolicyRow& zero) {
  for (int sl = 0; sl < 2; ++sl) {
    Claim(Of(seek, sl, kOP) <= Of(seek, sl, kIL),
          "organ-pipe <= interleaved in mean seek time",
          Str("%s OP %.2f against IL %.2f ms", kSlices[sl], Of(seek, sl, kOP),
              Of(seek, sl, kIL)));
  }
  for (int sl = 0; sl < 2; ++sl) {
    Claim(Of(seek, sl, kIL) < Of(seek, sl, kSER),
          "interleaved << serial in mean seek time",
          Str("%s IL %.2f against SER %.2f ms (%.1fx)", kSlices[sl],
              Of(seek, sl, kIL), Of(seek, sl, kSER),
              Of(seek, sl, kSER) / Of(seek, sl, kIL)));
  }
  SerialZeroClaim("serial's zero-length-seek share collapses", zero);
}

void Table9Claims(const PolicyRow& seek, const PolicyRow& zero) {
  Note("organ-pipe and interleaved close together",
       Str("seek OP/IL %.2f/%.2f ms all, %.2f/%.2f ms reads; zero-length "
           "%.0f/%.0f%% all, %.0f/%.0f%% reads",
           seek.all(kOP), seek.all(kIL), seek.reads(kOP), seek.reads(kIL),
           zero.all(kOP), zero.all(kIL), zero.reads(kOP), zero.reads(kIL)));
  for (int sl = 0; sl < 2; ++sl) {
    Claim(Of(seek, sl, kSER) > Of(seek, sl, kOP) &&
              Of(seek, sl, kSER) > Of(seek, sl, kIL),
          "serial clearly worse in seek time",
          Str("%s SER %.2f against OP %.2f, IL %.2f ms", kSlices[sl],
              Of(seek, sl, kSER), Of(seek, sl, kOP), Of(seek, sl, kIL)));
  }
  SerialZeroClaim("serial clearly worse in zero-length-seek share", zero);
}

constexpr PolicyDetailTable kTable8 = {
    "Table 8 — paper reference (Toshiba, system fs)",
    "Table 8 — this reproduction (Toshiba, system fs)",
    &core::ExperimentConfig::ToshibaSystem,
    {{"225", "165", "208", "144", "208", "142"},
     {"8", "23", "15", "24", "22", "39"},
     {"88", "67", "83", "61", "26", "39"},
     {"21.46", "16.14", "20.02", "14.39", "20.02", "14.23"},
     {"1.55", "4.49", "2.50", "5.86", "8.50", "8.57"},
     {"22.95", "24.18", "23.71", "24.31", "28.53", "27.8"},
     {"50.03", "5.47", "46.85", "5.14", "61.32", "6.32"}},
    Table8Claims};

constexpr PolicyDetailTable kTable9 = {
    "Table 9 — paper reference (Fujitsu, system fs)",
    "Table 9 — this reproduction (Fujitsu, system fs)",
    &core::ExperimentConfig::FujitsuSystem,
    {{"408", "311", "400", "305", "440", "321"},
     {"22", "35", "26", "44", "26", "41"},
     {"74", "59", "77", "62", "35", "35"},
     {"9.62", "7.63", "9.79", "7.78", "10.36", "8.02"},
     {"1.10", "1.74", "1.12", "1.92", "2.49", "2.82"},
     {"13.83", "13.03", "14.35", "13.74", "15.47", "14.51"},
     {"44.52", "3.23", "51.33", "3.25", "46.16", "2.73"}},
    Table9Claims};

void Table10() {
  Banner("Table 10 — paper reference (reads, Toshiba)");
  {
    Table t({"Placement", "Mean rot latency + transfer (ms)"});
    t.AddRow({"Without rearrangement", "18.58"});
    t.AddRow({"Organ-pipe", "19.42"});
    t.AddRow({"Serial", "19.29"});
    t.AddRow({"Interleaved", "18.47"});
    std::printf("%s", t.ToString().c_str());
  }

  Banner("Table 10 — this reproduction (reads, Toshiba)");
  Table t({"Placement", "Mean rot latency + transfer (ms)"});
  // Without rearrangement: one measured "off" day.
  double none;
  {
    core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
    CheckOk(exp.Setup(), "setup");
    const core::DayMetrics day = CheckOk(exp.RunMeasuredDay(), "off day");
    none = Printed(day.reads.rot_plus_transfer_ms);
    t.AddRow({"Without rearrangement", Table::Fmt(none, 2)});
  }
  double rot[3];  // organ-pipe, serial, interleaved
  const std::pair<const char*, placement::PolicyKind> kinds[3] = {
      {"Organ-pipe", placement::PolicyKind::kOrganPipe},
      {"Serial", placement::PolicyKind::kSerial},
      {"Interleaved", placement::PolicyKind::kInterleaved}};
  for (int i = 0; i < 3; ++i) {
    const std::vector<core::DayMetrics> days = RunPolicyDays(
        core::ExperimentConfig::ToshibaSystem(), kinds[i].second, /*days=*/2);
    double sum = 0;
    for (const core::DayMetrics& d : days) {
      sum += d.reads.rot_plus_transfer_ms;
    }
    rot[i] = Printed(sum / static_cast<double>(days.size()));
    t.AddRow({kinds[i].first, Table::Fmt(rot[i], 2)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  Claim(rot[2] <= none,
        "interleaved placement keeps rotational+transfer time at (or below) "
        "the unrearranged level",
        Str("%.2f against %.2f ms", rot[2], none));
  for (int i = 0; i < 2; ++i) {
    Claim(rot[i] > none,
          i == 0 ? "organ-pipe placement costs up to about a millisecond of "
                   "extra rotational delay"
                 : "serial placement costs up to about a millisecond of "
                   "extra rotational delay",
          Str("%.2f against %.2f ms unrearranged (%+.2f ms)", rot[i], none,
              rot[i] - none));
  }
}

// ---------------------------------------------------------------------------
// Service-time CDFs (Figures 4 and 6): one day without rearrangement and
// one with, on the Fujitsu disk.

constexpr Micros kCdfPoints[10] = {5, 10, 15, 20, 25, 30, 40, 50, 75, 100};
constexpr int k20ms = 3;  // the paper's calibration point

/// The day without and the day with rearrangement: P(service < t) at each
/// point.
struct Cdf {
  double off[10], on[10];
};

Cdf RunCdf(MakeConfig make) {
  core::Experiment exp(make());
  const core::OnOffResult result =
      CheckOk(core::RunOnOff(exp, /*days_per_side=*/1), "on/off run");
  const stats::TimeHistogram& off = result.off_days.front().service_all;
  const stats::TimeHistogram& on = result.on_days.front().service_all;
  Cdf cdf;
  for (int i = 0; i < 10; ++i) {
    cdf.off[i] = off.FractionBelow(kCdfPoints[i] * kMillisecond);
    cdf.on[i] = on.FractionBelow(kCdfPoints[i] * kMillisecond);
  }
  return cdf;
}

void PrintCdf(const char* title, const Cdf& cdf) {
  Banner(title);
  Table t({"service time (ms)", "CDF off", "CDF on"});
  for (int i = 0; i < 10; ++i) {
    t.AddRow({Table::Fmt(static_cast<std::int64_t>(kCdfPoints[i])),
              Table::Fmt(cdf.off[i], 3), Table::Fmt(cdf.on[i], 3)});
  }
  std::printf("%s", t.ToString().c_str());
}

/// The on-curve's lead over the off-curve at point `i`, as printed.
double Gap(const Cdf& cdf, int i) {
  return Printed(Printed(cdf.on[i], 3) - Printed(cdf.off[i], 3), 3);
}

/// The printed point where the on-curve is furthest above (largest) or
/// furthest below (smallest) the off-curve.
int GapPoint(const Cdf& cdf, bool largest) {
  int at = 0;
  for (int i = 1; i < 10; ++i) {
    if (largest ? Gap(cdf, i) > Gap(cdf, at) : Gap(cdf, i) < Gap(cdf, at)) {
      at = i;
    }
  }
  return at;
}

void Fig4() {
  const Cdf cdf = RunCdf(&core::ExperimentConfig::FujitsuSystem);
  PrintCdf("Figure 4 — service-time CDF, system fs, Fujitsu", cdf);
  std::printf("\nP(service < 20 ms): off = %.2f, on = %.2f\n",
              cdf.off[k20ms], cdf.on[k20ms]);
  ShapeChecks();
  Note("paper: P(service < 20 ms) is ~0.50 without rearrangement",
       Str("ours %.2f", cdf.off[k20ms]));
  Note("paper: P(service < 20 ms) is ~0.85 with rearrangement",
       Str("ours %.2f", cdf.on[k20ms]));
}

void Fig6() {
  const Cdf cdf = RunCdf(&core::ExperimentConfig::FujitsuUsers);
  PrintCdf("Figure 6 — service-time CDF, users fs, Fujitsu", cdf);
  ShapeChecks();
  const int low = GapPoint(cdf, /*largest=*/false);
  Claim(Gap(cdf, low) >= 0, "the on-curve dominates the off-curve",
        Str("closest at %lld ms: on %.3f against off %.3f",
            static_cast<long long>(kCdfPoints[low]), cdf.on[low],
            cdf.off[low]));
  const Cdf fig4 = RunCdf(&core::ExperimentConfig::FujitsuSystem);
  const int here = GapPoint(cdf, /*largest=*/true);
  const int there = GapPoint(fig4, /*largest=*/true);
  Claim(Gap(cdf, here) < Gap(fig4, there),
        "the gap is smaller than Figure 4's system-file-system gap",
        Str("widest %.3f at %lld ms against %.3f at %lld ms in fig4",
            Gap(cdf, here), static_cast<long long>(kCdfPoints[here]),
            Gap(fig4, there), static_cast<long long>(kCdfPoints[there])));
}

// ---------------------------------------------------------------------------
// Block access distributions (Figures 5 and 7): one measured day per disk,
// the share of requests the k most referenced blocks absorb.

constexpr std::int64_t kTopK[5] = {10, 100, 500, 1000, 2000};

/// One slice of one disk's day as printed: distinct blocks, requests and
/// the top-k shares in percent.
struct RankRow {
  std::int64_t distinct, total;
  double share[5];
};

RankRow RankRowOf(std::vector<std::int64_t> counts) {
  const stats::RankCurve curve(std::move(counts));
  RankRow row{curve.distinct(), curve.total(), {}};
  for (int k = 0; k < 5; ++k) {
    row.share[k] = Printed(100.0 * curve.TopKFraction(kTopK[k]), 1);
  }
  return row;
}

/// Each disk's all-requests, reads and writes rows.
using RankRuns = std::array<std::array<RankRow, 3>, 2>;

RankRuns RunRanks(bool users) {
  const MakeConfig configs[2] = {
      users ? &core::ExperimentConfig::ToshibaUsers
            : &core::ExperimentConfig::ToshibaSystem,
      users ? &core::ExperimentConfig::FujitsuUsers
            : &core::ExperimentConfig::FujitsuSystem};
  RankRuns runs;
  for (int d = 0; d < 2; ++d) {
    core::Experiment exp(configs[d]());
    CheckOk(exp.Setup(), "setup");
    CheckOk(exp.RunMeasuredDay().status(), "measured day");
    const analyzer::ExactCounter& all = exp.day_counts_all();
    const analyzer::ExactCounter& reads = exp.day_counts_reads();
    std::vector<std::int64_t> all_counts, read_counts, write_counts;
    for (const analyzer::HotBlock& hb : all.TopK(all.tracked())) {
      all_counts.push_back(hb.count);
      write_counts.push_back(hb.count - reads.CountOf(hb.id));
    }
    for (const analyzer::HotBlock& hb : reads.TopK(reads.tracked())) {
      read_counts.push_back(hb.count);
    }
    runs[d] = {RankRowOf(std::move(all_counts)),
               RankRowOf(std::move(read_counts)),
               RankRowOf(std::move(write_counts))};
  }
  return runs;
}

void PrintRanks(const char* title, const RankRuns& runs) {
  Banner(title);
  Table t({"Disk", "Slice", "Distinct", "Requests", "top10%", "top100%",
           "top500%", "top1000%", "top2000%"});
  for (int d = 0; d < 2; ++d) {
    if (d == 1) t.AddSeparator();
    for (int sl = 0; sl < 2; ++sl) {
      const RankRow& r = runs[d][sl];
      t.AddRow({kDisks[d], kSlices[sl], Table::Fmt(r.distinct),
                Table::Fmt(r.total), Table::Fmt(r.share[0], 1),
                Table::Fmt(r.share[1], 1), Table::Fmt(r.share[2], 1),
                Table::Fmt(r.share[3], 1), Table::Fmt(r.share[4], 1)});
    }
  }
  std::printf("%s", t.ToString().c_str());
}

std::string Shares(const RankRow& r) {
  return Str("%.1f/%.1f/%.1f/%.1f/%.1f%%", r.share[0], r.share[1],
             r.share[2], r.share[3], r.share[4]);
}

void Fig5() {
  const RankRuns runs = RunRanks(/*users=*/false);
  PrintRanks("Figure 5 — block access distribution, system file system",
             runs);
  ShapeChecks();
  for (int d = 0; d < 2; ++d) {
    Claim(runs[d][0].distinct < 2000,
          "<2000 distinct blocks absorb all requests",
          Str("%s %lld", kDisks[d],
              static_cast<long long>(runs[d][0].distinct)));
  }
  Note("paper: the 100 hottest absorb ~90%",
       Str("ours %.1f%% on the Toshiba, %.1f%% on the Fujitsu",
           runs[0][0].share[1], runs[1][0].share[1]));
  // The writes are the requests of the all row that the reads row lacks;
  // their shares print here only.
  for (int d = 0; d < 2; ++d) {
    const RankRow& reads = runs[d][1];
    const RankRow& writes = runs[d][2];
    bool above = false, below = false;
    for (int k = 0; k < 5; ++k) {
      above |= writes.share[k] > reads.share[k];
      below |= writes.share[k] < reads.share[k];
    }
    Claim(above && !below, "writes are more concentrated than reads",
          Str("%s top-10/100/500/1000/2000 writes %s against reads %s",
              kDisks[d], Shares(writes).c_str(), Shares(reads).c_str()));
  }
}

void Fig7() {
  const RankRuns runs = RunRanks(/*users=*/true);
  PrintRanks("Figure 7 — block access distribution, users file system",
             runs);
  ShapeChecks();
  const RankRuns system = RunRanks(/*users=*/false);
  for (int d = 0; d < 2; ++d) {
    for (int sl = 0; sl < 2; ++sl) {
      bool lower = true;
      for (int k = 0; k < 5; ++k) {
        lower &= runs[d][sl].share[k] < system[d][sl].share[k];
      }
      Claim(lower,
            "top-k request shares here should be visibly lower than the "
            "system file system's (fig5) at every k",
            Str("%s %s %s against %s", kDisks[d], kSlices[sl],
                Shares(runs[d][sl]).c_str(), Shares(system[d][sl]).c_str()));
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 8 — reduction against the number of rearranged blocks.

void Fig8() {
  Banner("Figure 8 — % reduction vs number of rearranged blocks "
         "(Toshiba, system fs)");

  Table t({"blocks", "seek dist red. % (all)", "seek time red. % (all)",
           "seek dist red. % (reads)", "seek time red. % (reads)"});
  constexpr std::int32_t kBlocks[9] = {0, 10, 25, 50, 100, 200, 400, 700,
                                       1018};
  constexpr const char* kCurves[4] = {"seek dist (all)", "seek time (all)",
                                      "seek dist (reads)",
                                      "seek time (reads)"};
  auto reduction = [](double fcfs, double actual) {
    return Printed(fcfs > 0 ? 100.0 * (fcfs - actual) / fcfs : 0.0, 1);
  };
  double red[9][4];  // [row][curve], as printed
  for (int row = 0; row < 9; ++row) {
    core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
    CheckOk(exp.Setup(), "setup");
    CheckOk(exp.RunMeasuredDay().status(), "warm-up day");
    exp.set_rearrange_blocks(kBlocks[row]);
    if (kBlocks[row] > 0) {
      CheckOk(exp.RearrangeForNextDay(), "rearrange");
    } else {
      CheckOk(exp.CleanForNextDay(), "clean");
    }
    exp.AdvanceWorkloadDay();
    const core::DayMetrics day = CheckOk(exp.RunMeasuredDay(), "day");
    red[row][0] = reduction(day.all.fcfs_seek_dist, day.all.mean_seek_dist);
    red[row][1] = reduction(day.all.fcfs_seek_ms, day.all.mean_seek_ms);
    red[row][2] =
        reduction(day.reads.fcfs_seek_dist, day.reads.mean_seek_dist);
    red[row][3] = reduction(day.reads.fcfs_seek_ms, day.reads.mean_seek_ms);
    t.AddRow({Table::Fmt(static_cast<std::int64_t>(kBlocks[row])),
              Table::Fmt(red[row][0], 1), Table::Fmt(red[row][1], 1),
              Table::Fmt(red[row][2], 1), Table::Fmt(red[row][3], 1)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  constexpr int k100 = 4, kLast = 8;  // the 100- and 1018-block rows
  for (int c = 0; c < 4; ++c) {
    const double rise = Printed(red[k100][c] - red[0][c], 1);
    const double after = Printed(red[kLast][c] - red[k100][c], 1);
    Claim(rise > 0 && rise > after,
          "the curves rise steeply up to ~100 blocks and then flatten",
          Str("%s %+.1f points from 0 to 100 blocks, %+.1f from 100 to 1018",
              kCurves[c], rise, after));
  }
  for (int sl = 0; sl < 2; ++sl) {
    auto margin = [&](int row) {
      return Printed(red[row][2 * sl] - red[row][2 * sl + 1], 1);
    };
    int tight = 0;
    for (int row = 1; row < 9; ++row) {
      if (margin(row) < margin(tight)) tight = row;
    }
    Claim(red[tight][2 * sl] > red[tight][2 * sl + 1],
          "seek-distance reductions exceed seek-time reductions",
          Str("%s, closest at %d blocks: %.1f%% against %.1f%%", kSlices[sl],
              kBlocks[tight], red[tight][2 * sl], red[tight][2 * sl + 1]));
  }
  Note("the 0-block row shows the reduction from SCAN request reordering "
       "alone",
       Str("%.1f%%/%.1f%% seek distance/time for all requests", red[0][0],
           red[0][1]));
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper.

// Disk-queue scheduling policy x block rearrangement. The paper attributes
// part of the rearrangement win to synergy between clustered hot blocks,
// SCAN head scheduling and bursty arrivals (Section 5.2).
void AblationSched() {
  Banner("Ablation — scheduler x rearrangement (Toshiba, system fs)");
  Table t({"Scheduler", "On/Off", "seek ms", "zero-seek %", "service ms",
           "wait ms"});
  constexpr sched::SchedulerKind kKinds[4] = {
      sched::SchedulerKind::kFcfs, sched::SchedulerKind::kSstf,
      sched::SchedulerKind::kScan, sched::SchedulerKind::kCLook};
  double seek[4][2], wait[4][2];  // [scheduler][off, on], as printed
  for (int k = 0; k < 4; ++k) {
    core::ExperimentConfig config = core::ExperimentConfig::ToshibaSystem();
    config.system.driver.scheduler = kKinds[k];
    core::Experiment exp(std::move(config));
    const core::OnOffResult result =
        CheckOk(core::RunOnOff(exp, /*days_per_side=*/2), "on/off run");
    for (int side = 0; side < 2; ++side) {
      const std::vector<core::DayMetrics>& days =
          side == 0 ? result.off_days : result.on_days;
      double seek_sum = 0, zero = 0, service = 0, wait_sum = 0;
      for (const core::DayMetrics& d : days) {
        seek_sum += d.all.mean_seek_ms;
        zero += d.all.zero_seek_pct;
        service += d.all.mean_service_ms;
        wait_sum += d.all.mean_wait_ms;
      }
      const double n = static_cast<double>(days.size());
      seek[k][side] = Printed(seek_sum / n);
      wait[k][side] = Printed(wait_sum / n);
      t.AddRow({sched::SchedulerKindName(kKinds[k]), side == 0 ? "Off" : "On",
                Table::Fmt(seek[k][side], 2), Table::Fmt(zero / n, 0),
                Table::Fmt(service / n, 2), Table::Fmt(wait[k][side], 2)});
    }
    t.AddSeparator();
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  double change[4];
  for (int k = 0; k < 4; ++k) {
    change[k] = ChangePct(seek[k][0], seek[k][1]);
    Claim(seek[k][1] < seek[k][0], "rearrangement helps under every scheduler",
          BeforeAfter(Str("%s seek", sched::SchedulerKindName(kKinds[k])),
                      seek[k][0], seek[k][1]));
  }
  constexpr int kScan = 2;
  bool scan_most = true, fcfs_worst = true;
  for (int k = 0; k < 4; ++k) {
    scan_most &= change[kScan] <= change[k];
    if (k > 0) fcfs_worst &= wait[0][0] > wait[k][0];
  }
  Claim(scan_most,
        "SCAN (the driver's policy) benefits most from bursts of "
        "same-cylinder requests",
        Str("seek change FCFS %+.1f%%, SSTF %+.1f%%, SCAN %+.1f%%, C-LOOK "
            "%+.1f%%",
            change[0], change[1], change[2], change[3]));
  Claim(fcfs_worst, "FCFS shows the worst waiting times off",
        Str("FCFS %.2f against SSTF %.2f, SCAN %.2f, C-LOOK %.2f ms",
            wait[0][0], wait[1][0], wait[2][0], wait[3][0]));
}

// Memory bound of the reference stream analyzer: the bounded Space-Saving
// counter at several capacities against exact counting, (a) as hot-list
// overlap on one day's record stream and (b) end to end.

/// One day's request records, rebuilt from the day's exact counts. Rank
/// overlap depends only on the multiset of references for the exact
/// counter; for Space-Saving order matters, so the blocks interleave
/// round-robin (a worst-ish case).
std::vector<driver::RequestRecord> CollectDayRecords() {
  core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
  CheckOk(exp.Setup(), "setup");
  CheckOk(exp.RunMeasuredDay().status(), "day");
  std::vector<driver::RequestRecord> records;
  auto hot = exp.day_counts_all().TopK(
      static_cast<std::size_t>(exp.day_counts_all().tracked()));
  std::vector<std::int64_t> remaining(hot.size());
  for (std::size_t i = 0; i < hot.size(); ++i) remaining[i] = hot[i].count;
  for (bool any = true; any;) {
    any = false;
    for (std::size_t i = 0; i < hot.size(); ++i) {
      if (remaining[i] > 0) {
        --remaining[i];
        any = true;
        records.push_back(driver::RequestRecord{
            hot[i].id.device, hot[i].id.block, 8192, sched::IoType::kRead});
      }
    }
  }
  return records;
}

double HotListOverlap(const std::vector<analyzer::HotBlock>& a,
                      const std::vector<analyzer::HotBlock>& b) {
  std::unordered_set<std::uint64_t> sa;
  for (const auto& hb : a) sa.insert(analyzer::PackBlockId(hb.id));
  std::size_t common = 0;
  for (const auto& hb : b) {
    if (sa.contains(analyzer::PackBlockId(hb.id))) ++common;
  }
  return a.empty() ? 0.0
                   : 100.0 * static_cast<double>(common) /
                         static_cast<double>(a.size());
}

void AblationAnalyzer() {
  Banner("Ablation — analyzer memory bound (Toshiba, system fs)");

  const std::vector<driver::RequestRecord> records = CollectDayRecords();
  analyzer::ExactCounter exact;
  for (const auto& r : records) {
    exact.Observe(analyzer::BlockId{r.device, r.block});
  }
  const auto truth = exact.TopK(1018);

  Table t({"counter", "entries", "top-1018 overlap %", "top-100 overlap %"});
  t.AddRow({"Exact", Table::Fmt((std::int64_t)exact.tracked()), "100.0",
            "100.0"});
  for (std::size_t cap : {128, 256, 512, 1024, 2048, 4096}) {
    analyzer::SpaceSavingCounter ss(cap);
    for (const auto& r : records) {
      ss.Observe(analyzer::BlockId{r.device, r.block});
    }
    t.AddRow({"Space-Saving", Table::Fmt((std::int64_t)cap),
              Table::Fmt(HotListOverlap(truth, ss.TopK(1018)), 1),
              Table::Fmt(HotListOverlap(exact.TopK(100), ss.TopK(100)), 1)});
  }
  std::printf("%s", t.ToString().c_str());

  Banner("End-to-end on-day seek time by analyzer capacity");
  Table t2({"analyzer", "on-day seek ms", "on-day zero-seek %"});
  constexpr std::int32_t kEntries[4] = {0, 256, 1024, 4096};
  double on_seek[4];
  double unrearranged = 0;  // the warm-up day, before any rearrangement
  for (int e = 0; e < 4; ++e) {
    core::ExperimentConfig config = core::ExperimentConfig::ToshibaSystem();
    config.system.analyzer_entries = kEntries[e];
    core::Experiment exp(std::move(config));
    CheckOk(exp.Setup(), "setup");
    unrearranged =
        Printed(CheckOk(exp.RunMeasuredDay(), "warm-up").all.mean_seek_ms);
    CheckOk(exp.RearrangeForNextDay(), "rearrange");
    exp.AdvanceWorkloadDay();
    const core::DayMetrics day = CheckOk(exp.RunMeasuredDay(), "on day");
    on_seek[e] = Printed(day.all.mean_seek_ms);
    t2.AddRow({kEntries[e] == 0
                   ? "Exact"
                   : "Space-Saving " + std::to_string(kEntries[e]),
               Table::Fmt(on_seek[e], 2),
               Table::Fmt(day.all.zero_seek_pct, 0)});
  }
  std::printf("%s", t2.ToString().c_str());

  ShapeChecks();
  Claim(on_seek[1] < unrearranged,
        "a few hundred entries already recover nearly all of the exact "
        "analyzer's benefit",
        Str("unrearranged %.2f ms, Space-Saving 256 %.2f ms, exact %.2f ms "
            "(%.1f%% of the exact cut)",
            unrearranged, on_seek[1], on_seek[0],
            Printed(100.0 * (unrearranged - on_seek[1]) /
                        (unrearranged - on_seek[0]),
                    1)));
  Note("the paper kept several thousand entries so that replacement was "
       "rarely needed",
       Str("the day touched %lld distinct blocks",
           static_cast<long long>(exact.tracked())));
}

// Size of the reserved region: the number of hidden cylinders, with as
// many hot blocks as fit, against on-day performance and the daily move
// cost (driver I/Os and disk time).
void AblationRegion() {
  Banner("Ablation — reserved-region size (Toshiba, system fs)");
  Table t({"cylinders", "slots", "on seek ms", "on zero %", "on service ms",
           "move I/Os", "move time s"});
  constexpr std::int32_t kCylinders[5] = {6, 12, 24, 48, 96};
  double warm[5], seek[5];  // unrearranged and on-day seek, as printed
  std::int64_t ios[5];
  for (int row = 0; row < 5; ++row) {
    const std::int32_t cylinders = kCylinders[row];
    core::ExperimentConfig config = core::ExperimentConfig::ToshibaSystem();
    config.reserved_cylinders = cylinders;
    // Ask for as many blocks as could possibly fit; the arranger is
    // bounded by the region's slot count.
    config.rearrange_blocks =
        std::min<std::int32_t>(1018, cylinders * 340 / 16);
    core::Experiment exp(std::move(config));
    CheckOk(exp.Setup(), "setup");
    const std::int32_t slots = exp.driver().reserved_slot_count();
    warm[row] =
        Printed(CheckOk(exp.RunMeasuredDay(), "warm-up").all.mean_seek_ms);

    CheckOk(exp.RearrangeForNextDay(), "rearrange");
    const std::int64_t move_ios = exp.last_arrange().internal_ios;
    const Micros move_time = exp.last_arrange().io_time;

    exp.AdvanceWorkloadDay();
    const core::DayMetrics day = CheckOk(exp.RunMeasuredDay(), "on day");
    seek[row] = Printed(day.all.mean_seek_ms);
    ios[row] = move_ios;
    t.AddRow({Table::Fmt((std::int64_t)cylinders),
              Table::Fmt((std::int64_t)slots), Table::Fmt(seek[row], 2),
              Table::Fmt(day.all.zero_seek_pct, 0),
              Table::Fmt(day.all.mean_service_ms, 2), Table::Fmt(move_ios),
              Table::Fmt(MicrosToMillis(move_time) / 1000.0, 1)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  bool shrinking = true, rising = true;
  std::string gains, move;
  for (int row = 1; row < 5; ++row) {
    const double gain = Printed(seek[row - 1] - seek[row]);
    if (row > 1) shrinking &= gain < Printed(seek[row - 2] - seek[row - 1]);
    rising &= ios[row] >= ios[row - 1];
    gains += Str("%s%.2f", row > 1 ? ", " : "", gain);
  }
  for (int row = 0; row < 5; ++row) {
    move += Str("%s%lld", row > 0 ? ", " : "",
                static_cast<long long>(ios[row]));
  }
  Claim(shrinking, "benefits saturate once the region holds the hot set",
        "on-day seek gain per step " + gains + " ms");
  Claim(rising && ios[4] > ios[0],
        "larger regions mostly add once-per-day move cost",
        "move I/Os " + move);
  Claim(seek[0] < warm[0], "a tiny region still captures much of the win",
        BeforeAfter("6 cylinders", warm[0], seek[0]) + ", " +
            BeforeAfter("48 cylinders", warm[3], seek[3]));
}

// Adaptive block rearrangement against the related-work alternatives the
// paper positions itself against (Section 1.1): cylinder shuffling
// [Vongsath 90], file-temperature placement [Staelin 91, iPcress], and a
// static layout adapted once.

struct BaselineRow {
  double seek_ms;
  double zero_pct;
  double service_ms;
  double move_seconds;  // adaptation data-movement disk time
};

/// A Toshiba drive with 48 hidden cylinders under the adaptive driver,
/// rearranging up to 1018 blocks, as the baseline traces run it.
struct TraceMachine {
  disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();
  disk::Disk disk{drive};
  driver::InMemoryTableStore store;
  std::unique_ptr<core::AdaptiveSystem> system;

  TraceMachine() {
    auto label = disk::DiskLabel::Rearranged(drive.geometry, 48);
    CheckOk(label.status(), "label");
    CheckOk(label->PartitionEvenly(1), "partition");
    core::AdaptiveSystemConfig config;
    config.rearrange_blocks = 1018;
    config.driver.block_table_capacity = 1018;
    system = std::make_unique<core::AdaptiveSystem>(&disk, std::move(*label),
                                                    config, &store);
    CheckOk(system->Start(), "start");
  }

  /// Replays `trace` and reports it; the move time is left at zero.
  BaselineRow Measure(const workload::Trace& trace) {
    CheckOk(workload::Replay(system->driver(), trace), "measure replay");
    system->driver().Drain();
    const core::DayMetrics m = core::DayMetrics::From(
        system->driver().IoctlReadStats(true), drive.seek_model);
    return BaselineRow{m.all.mean_seek_ms, m.all.zero_seek_pct,
                       m.all.mean_service_ms, 0.0};
  }
};

/// The row as the table prints it.
BaselineRow Printed(const BaselineRow& r) {
  return BaselineRow{Printed(r.seek_ms), Printed(r.zero_pct, 0),
                     Printed(r.service_ms), Printed(r.move_seconds, 1)};
}

BaselineRow RunNoRearrangement(const workload::Trace& measure) {
  return TraceMachine().Measure(measure);
}

BaselineRow RunAdaptiveBlock(const workload::Trace& learn,
                             const workload::Trace& measure) {
  TraceMachine m;
  core::AdaptiveSystem& system = *m.system;
  CheckOk(workload::Replay(system.driver(), learn,
                           [&system](Micros t) { system.PeriodicTick(t); }),
          "learn replay");
  system.driver().Drain();
  const Micros move_before = system.driver().internal_io_time();
  CheckOk(system.Rearrange().status(), "rearrange");
  system.driver().IoctlReadStats(true);
  BaselineRow row = m.Measure(measure);
  row.move_seconds =
      MicrosToMillis(system.driver().internal_io_time() - move_before) /
      1000.0;
  return row;
}

BaselineRow RunCylinderShuffle(const workload::Trace& learn,
                               const workload::Trace& measure) {
  const disk::DriveSpec drive = disk::DriveSpec::ToshibaMK156F();
  disk::Disk disk(drive);
  baselines::CylinderShuffleDriver driver(
      &disk, disk::DiskLabel::Plain(drive.geometry), {});
  auto replay = [&driver](const workload::Trace& trace) {
    for (const workload::TraceRecord& rec : trace.records()) {
      CheckOk(driver.SubmitBlock(rec.device, rec.block, rec.type, rec.time),
              "submit");
    }
    driver.Drain();
  };
  replay(learn);
  const Micros move_before = driver.shuffle_io_time();
  CheckOk(driver.Shuffle().status(), "shuffle");
  driver.ReadStats(true);
  replay(measure);
  const core::DayMetrics m =
      core::DayMetrics::From(driver.ReadStats(true), drive.seek_model);
  return BaselineRow{
      m.all.mean_seek_ms, m.all.zero_seek_pct, m.all.mean_service_ms,
      MicrosToMillis(driver.shuffle_io_time() - move_before) / 1000.0};
}

void BaselinesCylinderSection() {
  Banner("Baselines: block vs cylinder rearrangement (Toshiba, synthetic "
         "trace)");
  // One learning period and one measurement period with the same
  // popularity structure.
  workload::SyntheticConfig config;
  config.population = 2000;
  config.theta = 1.1;
  config.write_fraction = 0.3;
  config.arrivals.mean_burst_gap = 400 * kMillisecond;
  config.arrivals.mean_burst_size = 5.0;
  const std::int64_t virtual_blocks = (815 - 48) * 340 / 16;
  workload::SyntheticBlockWorkload generator(0, virtual_blocks, config, 99);
  workload::Trace learn, measure;
  generator.Generate(0, 15 * kMinute, learn);
  generator.Generate(15 * kMinute + kMinute, 31 * kMinute, measure);

  Table t({"System", "seek ms", "zero-seek %", "service ms",
           "move time (s)"});
  const BaselineRow none = RunNoRearrangement(measure);
  t.AddRow({"No rearrangement", Table::Fmt(none.seek_ms, 2),
            Table::Fmt(none.zero_pct, 0), Table::Fmt(none.service_ms, 2),
            "-"});
  const BaselineRow block = RunAdaptiveBlock(learn, measure);
  t.AddRow({"Adaptive block (1018)", Table::Fmt(block.seek_ms, 2),
            Table::Fmt(block.zero_pct, 0), Table::Fmt(block.service_ms, 2),
            Table::Fmt(block.move_seconds, 1)});
  const BaselineRow cylinder = RunCylinderShuffle(learn, measure);
  t.AddRow({"Cylinder shuffle", Table::Fmt(cylinder.seek_ms, 2),
            Table::Fmt(cylinder.zero_pct, 0),
            Table::Fmt(cylinder.service_ms, 2),
            Table::Fmt(cylinder.move_seconds, 1)});
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  const BaselineRow b = Printed(block);
  const BaselineRow c = Printed(cylinder);
  Claim(b.seek_ms < c.seek_ms,
        "block rearrangement beats cylinder shuffling on seek time",
        Str("%.2f against %.2f ms", b.seek_ms, c.seek_ms));
  Claim(b.zero_pct > c.zero_pct, "and (especially) zero-length seeks",
        Str("%.0f%% against %.0f%%", b.zero_pct, c.zero_pct));
  Claim(b.move_seconds < c.move_seconds, "while moving far less data",
        Str("%.1f against %.1f s of move time (%.1fx)", b.move_seconds,
            c.move_seconds, c.move_seconds / b.move_seconds));
}

void BaselinesGranularitySection() {
  Banner("Granularity: block rearrangement vs file temperature "
         "(Toshiba, system fs)");
  Table t({"Granularity", "blocks moved", "on-day seek ms", "on-day zero %",
           "on-day service ms"});
  double seek[2];  // block, file: on-day seek as printed
  auto add = [&t, &seek](int row, const char* name, std::int64_t moved,
                         const core::DayMetrics& day) {
    seek[row] = Printed(day.all.mean_seek_ms);
    t.AddRow({name, Table::Fmt(moved), Table::Fmt(seek[row], 2),
              Table::Fmt(day.all.zero_seek_pct, 0),
              Table::Fmt(day.all.mean_service_ms, 2)});
  };
  double unrearranged = 0;  // both warm-up days run the same day

  // Block granularity: the standard protocol.
  {
    core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
    CheckOk(exp.Setup(), "setup");
    unrearranged =
        Printed(CheckOk(exp.RunMeasuredDay(), "warm-up").all.mean_seek_ms);
    CheckOk(exp.RearrangeForNextDay(), "rearrange");
    const std::int32_t moved = exp.driver().block_table().size();
    exp.AdvanceWorkloadDay();
    add(0, "Block (organ-pipe)", moved,
        CheckOk(exp.RunMeasuredDay(), "on day"));
  }

  // File granularity: same stack, iPcress-style arranger.
  {
    core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
    CheckOk(exp.Setup(), "setup");
    CheckOk(exp.RunMeasuredDay().status(), "warm-up");
    fs::Ffs* filesystem =
        CheckOk(exp.server().FileSystemOf(0), "file system");
    const auto counts = exp.day_counts_all().TopK(
        static_cast<std::size_t>(exp.day_counts_all().tracked()));
    baselines::FileTemperatureArranger arranger;
    const placement::ArrangeResult moved = CheckOk(
        arranger.Rearrange(exp.driver(), *filesystem, 0, counts),
        "file rearrange");
    exp.system().ResetCounts();
    exp.AdvanceWorkloadDay();
    add(1, "File (temperature)", moved.copied,
        CheckOk(exp.RunMeasuredDay(), "on day"));
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  for (int row = 0; row < 2; ++row) {
    Claim(seek[row] < unrearranged, "both help",
          Str("%s %.2f against %.2f ms unrearranged",
              row == 0 ? "block" : "file", seek[row], unrearranged));
  }
  Claim(seek[0] < seek[1],
        "block granularity spends the reserved space only on hot blocks "
        "and wins",
        Str("block %.2f against file %.2f ms", seek[0], seek[1]));
}

void BaselinesStaticSection() {
  Banner("Adaptivity: daily rearrangement vs static placement under drift "
         "(Toshiba, users fs)");
  Table t({"Policy", "day 1 seek ms", "day 3 seek ms", "day 5 seek ms"});
  double first[2], last[2];  // adaptive, static: days 1 and 5 as printed
  for (const bool adaptive : {true, false}) {
    core::ExperimentConfig config = core::ExperimentConfig::ToshibaUsers();
    config.profile.daily_drift = 0.3;  // pronounced drift
    core::Experiment exp(std::move(config));
    CheckOk(exp.Setup(), "setup");
    CheckOk(exp.RunMeasuredDay().status(), "warm-up");
    CheckOk(exp.RearrangeForNextDay(), "first rearrange");
    double seeks[5] = {0, 0, 0, 0, 0};
    for (int day = 0; day < 5; ++day) {
      exp.AdvanceWorkloadDay();
      seeks[day] = CheckOk(exp.RunMeasuredDay(), "day").all.mean_seek_ms;
      if (adaptive && day < 4) {
        CheckOk(exp.RearrangeForNextDay(), "rearrange");
      }
    }
    t.AddRow({adaptive ? "Adaptive (daily)" : "Static (adapt once)",
              Table::Fmt(seeks[0], 2), Table::Fmt(seeks[2], 2),
              Table::Fmt(seeks[4], 2)});
    first[adaptive ? 0 : 1] = Printed(seeks[0]);
    last[adaptive ? 0 : 1] = Printed(seeks[4]);
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  Claim(last[1] > first[1], "the static layout decays as the workload drifts",
        BeforeAfter("day 1 to day 5", first[1], last[1]));
  Claim(last[0] <= first[0], "daily adaptation holds its gains",
        BeforeAfter("day 1 to day 5", first[0], last[0]));
}

void AblationBaselines() {
  BaselinesCylinderSection();
  BaselinesGranularitySection();
  BaselinesStaticSection();
}

// Count aging across adaptation periods: the paper resets reference counts
// daily; exponential aging (analyzer::DecayingCounter) trades adaptation
// speed for stability.

double MeanOnDaySeek(core::ExperimentConfig config, double decay,
                     std::int32_t days) {
  config.system.count_decay = decay;
  core::Experiment exp(std::move(config));
  CheckOk(exp.Setup(), "setup");
  CheckOk(exp.RunMeasuredDay().status(), "warm-up");
  double sum = 0;
  for (std::int32_t i = 0; i < days; ++i) {
    CheckOk(exp.RearrangeForNextDay(), "rearrange");
    exp.AdvanceWorkloadDay();
    sum += CheckOk(exp.RunMeasuredDay(), "day").all.mean_seek_ms;
  }
  return sum / static_cast<double>(days);
}

void AblationDecay() {
  Banner("Ablation — reference-count aging (mean on-day seek time, ms)");
  Table t({"decay", "system fs (slow drift)", "users fs (fast drift)"});
  constexpr double kDecays[4] = {0.0, 0.3, 0.6, 0.9};
  double system[4], users[4];  // as printed
  for (int i = 0; i < 4; ++i) {
    core::ExperimentConfig users_config =
        core::ExperimentConfig::ToshibaUsers();
    users_config.profile.daily_drift = 0.3;
    system[i] = Printed(MeanOnDaySeek(core::ExperimentConfig::ToshibaSystem(),
                                      kDecays[i], 4));
    users[i] = Printed(MeanOnDaySeek(std::move(users_config), kDecays[i], 4));
    t.AddRow({Table::Fmt(kDecays[i], 1), Table::Fmt(system[i], 2),
              Table::Fmt(users[i], 2)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  Note("on the stable system workload aging is roughly neutral",
       Str("%.2f/%.2f/%.2f/%.2f ms at decay 0.0/0.3/0.6/0.9", system[0],
           system[1], system[2], system[3]));
  Claim(users[3] > users[0],
        "under fast drift long memory (high decay) keeps stale blocks in the "
        "reserved area and hurts",
        Str("decay 0.9 %.2f against 0.0 %.2f ms (%+.1f%%)", users[3],
            users[0], ChangePct(users[0], users[3])));
}

// A dump(8)-style raw sequential scan sharing the driver queue with the
// interactive workload, with and without rearrangement. The scan's
// requests trickle in all day, as a tape-paced dump's do.

struct BackupRow {
  double seek_ms;
  double service_ms;
  double wait_ms;
  std::int64_t scan_requests;
};

BackupRow RunBackupDay(bool rearranged, bool with_backup) {
  core::Experiment exp(core::ExperimentConfig::ToshibaSystem());
  CheckOk(exp.Setup(), "setup");
  CheckOk(exp.RunMeasuredDay().status(), "warm-up");
  CheckOk(rearranged ? exp.RearrangeForNextDay() : exp.CleanForNextDay(),
          "day prep");
  exp.AdvanceWorkloadDay();
  exp.driver().IoctlReadStats(/*clear=*/true);

  // A few raw requests per monitoring period, issued from the day
  // runner's periodic hook so they interleave with the interactive
  // traffic. 256-sector requests cover the partition in roughly one day.
  const std::int64_t partition_sectors =
      exp.driver().label().partitions()[0].sector_count;
  constexpr std::int64_t kRequestSectors = 256;
  const Micros day = exp.config().profile.day_length;
  const std::int64_t ticks = day / (2 * kMinute);
  const std::int64_t per_tick =
      (partition_sectors / kRequestSectors + ticks - 1) / ticks;
  SectorNo scan_at = 0;
  std::int64_t scan_requests = 0;
  auto periodic = [&](Micros now) {
    if (!with_backup) return;
    for (std::int64_t i = 0; i < per_tick && scan_at < partition_sectors;
         ++i) {
      const std::int64_t count =
          std::min<std::int64_t>(kRequestSectors, partition_sectors - scan_at);
      CheckOk(exp.driver().SubmitRaw(0, scan_at, count, sched::IoType::kRead,
                                     now),
              "raw scan request");
      scan_at += count;
      ++scan_requests;
    }
  };

  CheckOk(exp.workload().RunDay(exp.driver().now(), periodic).status(),
          "day");
  exp.server().FlushAndDrain();
  const core::DayMetrics m = core::DayMetrics::From(
      exp.driver().IoctlReadStats(true), exp.seek_model());
  return BackupRow{m.all.mean_seek_ms, m.all.mean_service_ms,
                   m.all.mean_wait_ms, scan_requests};
}

void AblationBackup() {
  Banner("Ablation — dump/backup raw-scan interference (Toshiba, system fs)");
  std::printf(
      "Note: the 'yes' rows include the scan's own requests in the\n"
      "day's statistics, as the driver's monitor would.\n\n");
  Table t({"Rearrangement", "Backup", "seek ms", "service ms", "wait ms",
           "scan reqs"});
  BackupRow rows[2][2];  // [rearranged][with backup], as printed
  for (const bool rearranged : {false, true}) {
    for (const bool with_backup : {false, true}) {
      const BackupRow raw = RunBackupDay(rearranged, with_backup);
      const BackupRow r{Printed(raw.seek_ms), Printed(raw.service_ms),
                        Printed(raw.wait_ms), raw.scan_requests};
      rows[rearranged][with_backup] = r;
      t.AddRow({rearranged ? "On" : "Off", with_backup ? "yes" : "no",
                Table::Fmt(r.seek_ms, 2), Table::Fmt(r.service_ms, 2),
                Table::Fmt(r.wait_ms, 2),
                with_backup ? Table::Fmt(r.scan_requests)
                            : std::string("-")});
    }
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  constexpr const char* kCondition[2] = {"rearrangement off:",
                                         "rearrangement on:"};
  for (int on = 0; on < 2; ++on) {
    Claim(rows[on][1].wait_ms > rows[on][0].wait_ms,
          "the all-day scan inflates waiting times in both conditions",
          BeforeAfter(kCondition[on], rows[on][0].wait_ms,
                      rows[on][1].wait_ms));
  }
  for (int on = 0; on < 2; ++on) {
    Claim(rows[on][1].seek_ms < rows[on][0].seek_ms,
          "its sequential requests dilute the *mean* seek",
          BeforeAfter(kCondition[on], rows[on][0].seek_ms,
                      rows[on][1].seek_ms));
  }
  for (int backup = 0; backup < 2; ++backup) {
    const BackupRow& off = rows[0][backup];
    const BackupRow& on = rows[1][backup];
    Claim(on.seek_ms < off.seek_ms && on.service_ms < off.service_ms &&
              on.wait_ms < off.wait_ms,
          "the rearranged day keeps a clear advantage throughout",
          Str("%s backup: seek %.2f -> %.2f, service %.2f -> %.2f, wait "
              "%.2f -> %.2f ms",
              backup ? "with" : "without", off.seek_ms, on.seek_ms,
              off.service_ms, on.service_ms, off.wait_ms, on.wait_ms));
  }
  Note("the scan also exercises physio splitting and raw redirection at "
       "full-partition scale",
       Str("%lld raw requests of 256 sectors per day",
           static_cast<long long>(rows[1][1].scan_requests)));
}

// Extension: rotationally staggered organ-pipe placement keeps organ-pipe's
// cylinder assignment but spreads consecutive hot ranks around the track
// within each cylinder.
void ExtStaggered() {
  Banner("Extension — staggered organ-pipe placement (Toshiba, system fs)");
  Table t({"Placement", "seek ms", "zero-seek %", "rot+transfer ms (reads)",
           "service ms"});
  constexpr placement::PolicyKind kKinds[3] = {
      placement::PolicyKind::kOrganPipe, placement::PolicyKind::kStaggered,
      placement::PolicyKind::kInterleaved};
  double seek[3], zero[3], rot[3];  // as printed
  for (int k = 0; k < 3; ++k) {
    const std::vector<core::DayMetrics> days = RunPolicyDays(
        core::ExperimentConfig::ToshibaSystem(), kKinds[k], /*days=*/2);
    double seek_sum = 0, zero_sum = 0, rot_sum = 0, service = 0;
    for (const core::DayMetrics& d : days) {
      seek_sum += d.all.mean_seek_ms;
      zero_sum += d.all.zero_seek_pct;
      rot_sum += d.reads.rot_plus_transfer_ms;
      service += d.all.mean_service_ms;
    }
    const double n = static_cast<double>(days.size());
    seek[k] = Printed(seek_sum / n);
    zero[k] = Printed(zero_sum / n, 0);
    rot[k] = Printed(rot_sum / n);
    t.AddRow({placement::PolicyKindName(kKinds[k]), Table::Fmt(seek[k], 2),
              Table::Fmt(zero[k], 0), Table::Fmt(rot[k], 2),
              Table::Fmt(service / n, 2)});
  }
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  Claim(seek[1] == seek[0] && zero[1] == zero[0],
        "staggered matches organ-pipe's seek behaviour exactly",
        Str("seek %.2f against %.2f ms, zero-length %.0f%% against %.0f%%",
            seek[1], seek[0], zero[1], zero[0]));
  Note("its rotational effect is neutral under this workload",
       Str("rot+transfer %.2f against organ-pipe's %.2f ms", rot[1], rot[0]));
  Note("paper (Table 10): placement shifts rotational delay by at most ~1 ms",
       Str("ours %.2f/%.2f/%.2f ms for organ-pipe/staggered/interleaved",
           rot[0], rot[1], rot[2]));
}

// Hot-set predictability: the share of day N's requests on day N-1's hot
// list, which bounds what rearrangement by yesterday's counts can deliver
// (Section 5.3).

double CoveredPct(const std::unordered_set<std::uint64_t>& hot,
                  const analyzer::ExactCounter& counter) {
  std::int64_t total = 0, in = 0;
  for (const analyzer::HotBlock& hb :
       counter.TopK(static_cast<std::size_t>(counter.tracked()))) {
    total += hb.count;
    if (hot.contains(analyzer::PackBlockId(hb.id))) in += hb.count;
  }
  return total == 0
             ? 0.0
             : 100.0 * static_cast<double>(in) / static_cast<double>(total);
}

/// Runs days 0-3 and adds days 1-3 to `t`; returns the printed coverage,
/// [day - 1][all, reads].
std::array<std::array<double, 2>, 3> RunPrediction(
    const char* name, core::ExperimentConfig config, Table& t) {
  std::array<std::array<double, 2>, 3> covered;
  const std::size_t k = static_cast<std::size_t>(config.rearrange_blocks);
  core::Experiment exp(std::move(config));
  CheckOk(exp.Setup(), "setup");
  CheckOk(exp.RunMeasuredDay().status(), "day 0");
  for (int day = 1; day <= 3; ++day) {
    // Yesterday's hot list (what the arranger would move tonight).
    std::unordered_set<std::uint64_t> hot;
    for (const analyzer::HotBlock& hb : exp.day_counts_all().TopK(k)) {
      hot.insert(analyzer::PackBlockId(hb.id));
    }
    exp.system().ResetCounts();
    exp.AdvanceWorkloadDay();
    CheckOk(exp.RunMeasuredDay().status(), "day");
    covered[day - 1] = {Printed(CoveredPct(hot, exp.day_counts_all()), 1),
                        Printed(CoveredPct(hot, exp.day_counts_reads()), 1)};
    t.AddRow({name, Table::Fmt(static_cast<std::int64_t>(day)),
              Table::Fmt(covered[day - 1][0], 1),
              Table::Fmt(covered[day - 1][1], 1)});
  }
  return covered;
}

void Prediction() {
  Banner("Prediction quality: share of today's requests on yesterday's "
         "hot list (Toshiba)");
  Table t({"Workload", "day", "all requests %", "reads %"});
  const auto system =
      RunPrediction("system fs", core::ExperimentConfig::ToshibaSystem(), t);
  t.AddSeparator();
  const auto users =
      RunPrediction("users fs", core::ExperimentConfig::ToshibaUsers(), t);
  std::printf("%s", t.ToString().c_str());

  ShapeChecks();
  auto days = [](const std::array<std::array<double, 2>, 3>& c, int sl) {
    return Str("%.1f/%.1f/%.1f%%", c[0][sl], c[1][sl], c[2][sl]);
  };
  for (int sl = 0; sl < 2; ++sl) {
    bool above = true;
    for (int d = 0; d < 3; ++d) above &= system[d][sl] > 90.0;
    Claim(above,
          "the system file system's traffic is highly predictable day over "
          "day (>90% coverage)",
          Str("%s days 1-3 %s", kSlices[sl], days(system, sl).c_str()));
  }
  for (int sl = 0; sl < 2; ++sl) {
    bool lower = true;
    for (int d = 0; d < 3; ++d) lower &= users[d][sl] < system[d][sl];
    Claim(lower, "the users file system's is markedly less so",
          Str("%s days 1-3 %s against %s", kSlices[sl],
              days(users, sl).c_str(), days(system, sl).c_str()));
  }
}

// ---------------------------------------------------------------------------
// The registry: each id is the name of the table, figure or ablation.

struct PaperId {
  const char* id;
  void (*run)();
};

constexpr PaperId kIds[] = {
    {"table1", Table1},
    {"table2", [] { RunOnOffTable(kTable2); }},
    {"table3", Table3},
    {"table4", [] { RunOnOffTable(kTable4); }},
    {"table5", [] { RunOnOffTable(kTable5); }},
    {"table6", [] { RunOnOffTable(kTable6); }},
    {"table7", Table7},
    {"table8", [] { RunPolicyDetailTable(kTable8); }},
    {"table9", [] { RunPolicyDetailTable(kTable9); }},
    {"table10", Table10},
    {"fig4", Fig4},
    {"fig5", Fig5},
    {"fig6", Fig6},
    {"fig7", Fig7},
    {"fig8", Fig8},
    {"ablation_sched", AblationSched},
    {"ablation_analyzer", AblationAnalyzer},
    {"ablation_region", AblationRegion},
    {"ablation_baselines", AblationBaselines},
    {"ablation_decay", AblationDecay},
    {"ablation_backup", AblationBackup},
    {"ext_staggered", ExtStaggered},
    {"prediction", Prediction},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2) {
    for (const PaperId& p : kIds) {
      if (std::strcmp(argv[1], p.id) == 0) {
        p.run();
        return 0;
      }
    }
  }
  std::fprintf(stderr, "usage: bench_paper <id>\nids:");
  for (const PaperId& p : kIds) std::fprintf(stderr, " %s", p.id);
  std::fprintf(stderr, "\n");
  return 2;
}
