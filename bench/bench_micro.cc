// Micro-benchmarks (google-benchmark) for the hot in-driver paths: block
// table lookups and the request monitor sit on every I/O, the Space-Saving
// counter on every analyzer drain, the schedulers and disk model on every
// dispatch. These bound the CPU cost the adaptive driver adds per request.
//
// main() first times the rewritten hot structures against the
// implementations they replaced (two-unordered_map block table, multimap
// Space-Saving) and writes the machine-readable record BENCH_micro.json,
// then hands over to the normal google-benchmark runner.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <unordered_map>

#include "analyzer/exact_counter.h"
#include "analyzer/space_saving_counter.h"
#include "bench_util.h"
#include "disk/disk.h"
#include "driver/block_table.h"
#include "driver/request_monitor.h"
#include "driver/translation_filter.h"
#include "disk/seek_model.h"
#include "oracles/scheduler_ref.h"
#include "oracles/space_saving_ref.h"
#include "oracles/zipf_ref.h"
#include "sched/flat_queue.h"
#include "sched/scheduler.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace abr;

void BM_BlockTableLookupHit(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  driver::BlockTable table(n);
  for (std::int32_t i = 0; i < n; ++i) {
    (void)table.Insert(/*original=*/i * 16, /*relocated=*/1000000 + i * 16);
  }
  Rng rng(7);
  for (auto _ : state) {
    const SectorNo key =
        static_cast<SectorNo>(rng.NextBounded(static_cast<std::uint64_t>(n))) *
        16;
    benchmark::DoNotOptimize(table.Lookup(key));
  }
}
BENCHMARK(BM_BlockTableLookupHit)->Arg(1018)->Arg(4096);

void BM_BlockTableLookupMiss(benchmark::State& state) {
  driver::BlockTable table(1018);
  for (std::int32_t i = 0; i < 1018; ++i) {
    (void)table.Insert(i * 16, 1000000 + i * 16);
  }
  Rng rng(7);
  for (auto _ : state) {
    const SectorNo key =
        2000000 + static_cast<SectorNo>(rng.NextBounded(100000));
    benchmark::DoNotOptimize(table.Lookup(key));
  }
}
BENCHMARK(BM_BlockTableLookupMiss);

void BM_BlockTableSerialize(benchmark::State& state) {
  const std::int32_t n = static_cast<std::int32_t>(state.range(0));
  driver::BlockTable table(n);
  for (std::int32_t i = 0; i < n; ++i) {
    (void)table.Insert(i * 16, 1000000 + i * 16);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Serialize());
  }
}
BENCHMARK(BM_BlockTableSerialize)->Arg(1018)->Arg(3500);

void BM_RequestMonitorRecord(benchmark::State& state) {
  driver::RequestMonitor monitor(1 << 16);
  driver::RequestRecord rec{0, 42, 8192, sched::IoType::kRead};
  std::int64_t i = 0;
  for (auto _ : state) {
    if (monitor.suspended()) monitor.ReadAndClear();
    rec.block = i++ & 0xFFFF;
    benchmark::DoNotOptimize(monitor.Record(rec));
  }
}
BENCHMARK(BM_RequestMonitorRecord);

void BM_SpaceSavingObserve(benchmark::State& state) {
  analyzer::SpaceSavingCounter counter(
      static_cast<std::size_t>(state.range(0)));
  ZipfSampler zipf(100000, 1.0);
  Rng rng(13);
  for (auto _ : state) {
    counter.Observe(analyzer::BlockId{0, zipf.Sample(rng)});
  }
}
BENCHMARK(BM_SpaceSavingObserve)->Arg(512)->Arg(4096);

void BM_SpaceSavingObserveRef(benchmark::State& state) {
  // The multimap implementation the stream-summary rewrite replaced.
  analyzer::SpaceSavingCounterRef counter(
      static_cast<std::size_t>(state.range(0)));
  ZipfSampler zipf(100000, 1.0);
  Rng rng(13);
  for (auto _ : state) {
    counter.Observe(analyzer::BlockId{0, zipf.Sample(rng)});
  }
}
BENCHMARK(BM_SpaceSavingObserveRef)->Arg(512)->Arg(4096);

void BM_ScanSchedulerCycle(benchmark::State& state) {
  sched::ScanScheduler scheduler(340);
  Rng rng(17);
  sched::IoRequest req;
  req.sector_count = 16;
  std::int64_t queued = 0;
  for (auto _ : state) {
    if (queued < 16) {
      req.sector = static_cast<SectorNo>(rng.NextBounded(815 * 340));
      scheduler.Enqueue(req);
      ++queued;
    } else {
      benchmark::DoNotOptimize(scheduler.Dequeue(400));
      --queued;
    }
  }
}
BENCHMARK(BM_ScanSchedulerCycle);

void BM_DiskService(benchmark::State& state) {
  disk::Disk d(disk::DriveSpec::ToshibaMK156F());
  Rng rng(23);
  Micros now = 0;
  for (auto _ : state) {
    const SectorNo s =
        static_cast<SectorNo>(rng.NextBounded(815 * 340 - 16));
    const disk::ServiceBreakdown b = d.Service(s, 16, /*is_read=*/true, now);
    now += b.total();
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_DiskService);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(static_cast<std::int64_t>(state.range(0)), 1.2);
  Rng rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

// --- Before/after record (BENCH_micro.json) -------------------------------
//
// Times each rewritten structure against the implementation it replaced on
// identical pre-generated key streams, and emits ns/op + speedup through
// bench::EmitJson so the perf trajectory is diffable across PRs. Every
// reported number is the median of five runs.

/// The block-table indexing scheme before the flat-hash rewrite: two
/// node-based unordered_maps over a dense entry vector.
struct LegacyBlockTable {
  std::vector<driver::BlockTableEntry> entries;
  std::unordered_map<SectorNo, std::size_t> by_original;
  std::unordered_map<SectorNo, std::size_t> by_relocated;

  bool Insert(SectorNo original, SectorNo relocated) {
    if (by_original.contains(original) || by_relocated.contains(relocated)) {
      return false;
    }
    const std::size_t idx = entries.size();
    entries.push_back({original, relocated, false});
    by_original.emplace(original, idx);
    by_relocated.emplace(relocated, idx);
    return true;
  }

  std::optional<SectorNo> Lookup(SectorNo original) const {
    auto it = by_original.find(original);
    if (it == by_original.end()) return std::nullopt;
    return entries[it->second].relocated;
  }

  bool Remove(SectorNo original) {
    auto it = by_original.find(original);
    if (it == by_original.end()) return false;
    const std::size_t idx = it->second;
    const std::size_t last = entries.size() - 1;
    by_relocated.erase(entries[idx].relocated);
    by_original.erase(it);
    if (idx != last) {
      entries[idx] = entries[last];
      by_original[entries[idx].original] = idx;
      by_relocated[entries[idx].relocated] = idx;
    }
    entries.pop_back();
    return true;
  }
};

template <typename F>
double OneRunNsPerOp(std::int64_t iters, F&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) fn(i);
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                 .count()) /
         static_cast<double>(iters);
}

/// Median of five timed runs: robust against a scheduler hiccup or cache
/// warm-up landing in any single run.
template <typename F>
double NsPerOp(std::int64_t iters, F&& fn) {
  std::array<double, 5> runs;
  for (double& r : runs) r = OneRunNsPerOp(iters, fn);
  std::sort(runs.begin(), runs.end());
  return runs[2];
}

bench::BenchMetric Compare(const std::string& name, double legacy_ns,
                           double new_ns) {
  bench::BenchMetric m;
  m.name = name;
  m.ns_per_op = new_ns;
  m.ops_per_sec = new_ns > 0 ? 1e9 / new_ns : 0;
  m.threads = 1;
  m.speedup = new_ns > 0 ? legacy_ns / new_ns : 0;
  std::printf("%-28s %8.1f ns/op  (was %8.1f ns/op, %.2fx)\n", name.c_str(),
              new_ns, legacy_ns, m.speedup);
  return m;
}

void EmitBeforeAfterJson() {
  bench::Banner("hot-path before/after (BENCH_micro.json)");
  std::vector<bench::BenchMetric> metrics;
  constexpr std::int32_t kTableSize = 1018;
  constexpr std::int64_t kIters = 2000000;

  // Identical random key streams for both implementations.
  std::vector<SectorNo> hits(kIters), misses(kIters);
  {
    Rng rng(7);
    for (std::int64_t i = 0; i < kIters; ++i) {
      hits[i] = static_cast<SectorNo>(rng.NextBounded(kTableSize)) * 16;
      misses[i] = 2000000 + static_cast<SectorNo>(rng.NextBounded(100000));
    }
  }

  driver::BlockTable table(kTableSize);
  LegacyBlockTable legacy;
  for (std::int32_t i = 0; i < kTableSize; ++i) {
    (void)table.Insert(i * 16, 1000000 + i * 16);
    (void)legacy.Insert(i * 16, 1000000 + i * 16);
  }

  metrics.push_back(Compare(
      "block_table_lookup_hit",
      NsPerOp(kIters,
              [&](std::int64_t i) {
                benchmark::DoNotOptimize(legacy.Lookup(hits[i]));
              }),
      NsPerOp(kIters, [&](std::int64_t i) {
        benchmark::DoNotOptimize(table.Lookup(hits[i]));
      })));

  metrics.push_back(Compare(
      "block_table_lookup_miss",
      NsPerOp(kIters,
              [&](std::int64_t i) {
                benchmark::DoNotOptimize(legacy.Lookup(misses[i]));
              }),
      NsPerOp(kIters, [&](std::int64_t i) {
        benchmark::DoNotOptimize(table.Lookup(misses[i]));
      })));

  // Insert/Remove churn: every iteration retires one entry and re-admits
  // it, the shape of a daily rearrangement rebuild. Table size stays
  // constant so both implementations do identical work.
  metrics.push_back(Compare(
      "block_table_insert_remove",
      NsPerOp(kIters / 4,
              [&](std::int64_t i) {
                const SectorNo s = (i % kTableSize) * 16;
                (void)legacy.Remove(s);
                (void)legacy.Insert(s, 1000000 + s);
              }),
      NsPerOp(kIters / 4, [&](std::int64_t i) {
        const SectorNo s = (i % kTableSize) * 16;
        (void)table.Remove(s);
        (void)table.Insert(s, 1000000 + s);
      })));

  // Space-Saving on the analyzer's canonical workload: Zipf block stream,
  // bounded list far smaller than the universe.
  constexpr std::size_t kCapacity = 512;
  std::vector<BlockNo> stream(kIters);
  {
    ZipfSampler zipf(100000, 1.0);
    Rng rng(13);
    for (std::int64_t i = 0; i < kIters; ++i) stream[i] = zipf.Sample(rng);
  }
  analyzer::SpaceSavingCounterRef ref(kCapacity);
  analyzer::SpaceSavingCounter fast(kCapacity);
  metrics.push_back(Compare(
      "space_saving_observe",
      NsPerOp(kIters,
              [&](std::int64_t i) {
                ref.Observe(analyzer::BlockId{0, stream[i]});
              }),
      NsPerOp(kIters, [&](std::int64_t i) {
        fast.Observe(analyzer::BlockId{0, stream[i]});
      })));

  metrics.push_back(Compare(
      "space_saving_topk100",
      NsPerOp(2000,
              [&](std::int64_t) { benchmark::DoNotOptimize(ref.TopK(100)); }),
      NsPerOp(2000, [&](std::int64_t) {
        benchmark::DoNotOptimize(fast.TopK(100));
      })));

  // Scheduler queues: the flat sorted runs vs the multimap originals
  // (scheduler_ref.h), on an identical enqueue/dequeue cycle held at a
  // queue depth where the node-vs-array layout shows.
  std::vector<SectorNo> sectors(kIters);
  {
    Rng rng(17);
    for (SectorNo& s : sectors) {
      s = static_cast<SectorNo>(rng.NextBounded(815 * 340));
    }
  }
  const auto sched_cycle = [&sectors](auto& scheduler) {
    return [&scheduler, &sectors, queued = std::int64_t{0}](
               std::int64_t i) mutable {
      if (queued < 64) {
        sched::IoRequest req;
        req.sector = sectors[static_cast<std::size_t>(i)];
        req.sector_count = 16;
        scheduler.Enqueue(req);
        ++queued;
      } else {
        benchmark::DoNotOptimize(scheduler.Dequeue(400));
        --queued;
      }
    };
  };
  sched::ScanSchedulerRef scan_ref(340);
  sched::ScanScheduler scan_flat(340);
  metrics.push_back(Compare("scan_scheduler_cycle",
                            NsPerOp(kIters, sched_cycle(scan_ref)),
                            NsPerOp(kIters, sched_cycle(scan_flat))));
  sched::SstfSchedulerRef sstf_ref(340);
  sched::SstfScheduler sstf_flat(340);
  metrics.push_back(Compare("sstf_scheduler_cycle",
                            NsPerOp(kIters, sched_cycle(sstf_ref)),
                            NsPerOp(kIters, sched_cycle(sstf_flat))));

  // Zipf sampling: the O(log n) inverse-CDF oracle (zipf_ref.h) vs the
  // O(1) alias-table sampler, one draw per generated request.
  {
    ZipfSamplerRef zipf_ref(100000, 1.2);
    ZipfSampler zipf_fast(100000, 1.2);
    Rng rng_ref(29), rng_fast(29);
    metrics.push_back(Compare(
        "zipf_sample",
        NsPerOp(kIters,
                [&](std::int64_t) {
                  benchmark::DoNotOptimize(zipf_ref.Sample(rng_ref));
                }),
        NsPerOp(kIters, [&](std::int64_t) {
          benchmark::DoNotOptimize(zipf_fast.Sample(rng_fast));
        })));
  }

  // Table persistence: the byte-at-a-time append + byte-wise-FNV
  // serializer vs SerializeInto (single pass into a reused buffer, word
  // checksum). A table store serializes each time it exposes an image:
  // at attach, on a torn write, and for a corrupted test image.
  {
    const auto legacy_serialize = [&table]() {
      std::vector<std::uint8_t> out;
      const auto put = [&out](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
          out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
        }
      };
      put(0xAB12B70C4BB71EULL);
      put(static_cast<std::uint64_t>(table.entries().size()));
      put(0);
      for (const driver::BlockTableEntry& e : table.entries()) {
        put(static_cast<std::uint64_t>(e.original));
        put((static_cast<std::uint64_t>(e.relocated) << 1) |
            (e.dirty ? 1u : 0u));
      }
      std::uint64_t h = 0xCBF29CE484222325ULL;
      for (std::size_t b = 24; b < out.size(); ++b) {
        h ^= out[b];
        h *= 0x100000001B3ULL;
      }
      for (int b = 0; b < 8; ++b) {
        out[16 + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(h >> (8 * b));
      }
      return out;
    };
    std::vector<std::uint8_t> reused;
    constexpr std::int64_t kSerializeIters = 20000;
    metrics.push_back(Compare(
        "block_table_serialize",
        NsPerOp(kSerializeIters,
                [&](std::int64_t) {
                  benchmark::DoNotOptimize(legacy_serialize());
                }),
        NsPerOp(kSerializeIters, [&](std::int64_t) {
          table.SerializeInto(reused);
          benchmark::DoNotOptimize(reused.data());
        })));
  }

  // Analyzer drain: per-record virtual Observe through the base pointer vs
  // one ObserveBatch per monitoring period.
  {
    std::vector<analyzer::BlockId> ids(kIters);
    {
      ZipfSampler zipf(100000, 1.0);
      Rng rng(31);
      for (auto& id : ids) id = analyzer::BlockId{0, zipf.Sample(rng)};
    }
    analyzer::ExactCounter seq_impl, batch_impl;
    analyzer::ReferenceCounter* seq = &seq_impl;
    analyzer::ReferenceCounter* batch = &batch_impl;
    constexpr std::int64_t kBatch = 4096;
    metrics.push_back(Compare(
        "analyzer_observe_batch",
        NsPerOp(kIters,
                [&](std::int64_t i) {
                  seq->Observe(ids[static_cast<std::size_t>(i)]);
                }),
        NsPerOp(kIters, [&](std::int64_t i) {
          if (i % kBatch == 0) {
            batch->ObserveBatch(&ids[static_cast<std::size_t>(i)],
                                static_cast<std::size_t>(
                                    std::min<std::int64_t>(kBatch,
                                                           kIters - i)));
          }
        })));
  }

  // Per-request translation of an untranslated block: the direct probes
  // (move-chain map + FlatMap64) vs the presence-filter fast path that
  // skips both when the granule is empty.
  {
    constexpr std::int64_t kTotalSectors = 815 * 340;
    driver::TranslationFilter filter(kTotalSectors, 16);
    for (std::int32_t i = 0; i < kTableSize; ++i) filter.Add(i * 16);
    std::unordered_map<SectorNo, int> moving;  // shape of driver::moving_
    std::vector<SectorNo> keys(kIters);
    {
      Rng rng(37);
      for (SectorNo& k : keys) {
        k = static_cast<SectorNo>(
            rng.NextBounded(static_cast<std::uint64_t>(kTotalSectors)));
      }
    }
    metrics.push_back(Compare(
        "translate_untranslated",
        NsPerOp(kIters,
                [&](std::int64_t i) {
                  const SectorNo k = keys[static_cast<std::size_t>(i)];
                  benchmark::DoNotOptimize(moving.find(k) != moving.end());
                  benchmark::DoNotOptimize(table.Lookup(k));
                }),
        NsPerOp(kIters, [&](std::int64_t i) {
          const SectorNo k = keys[static_cast<std::size_t>(i)];
          if (filter.MayContain(k)) {
            benchmark::DoNotOptimize(moving.find(k) != moving.end());
            benchmark::DoNotOptimize(table.Lookup(k));
          }
        })));
  }

  // Seek-time evaluation: the per-call analytic curve (sqrt/cbrt/log, the
  // reference evaluator) vs the per-drive lookup table every
  // Disk::Service and seek-distance metric conversion now reads.
  {
    const disk::SeekModel lut = disk::SeekModel::ToshibaMK156F();
    std::vector<std::int64_t> dists(kIters);
    {
      Rng rng(41);
      for (std::int64_t& d : dists) {
        d = static_cast<std::int64_t>(
            rng.NextBounded(static_cast<std::uint64_t>(lut.max_distance() + 1)));
      }
    }
    metrics.push_back(Compare(
        "seek_time_lookup",
        NsPerOp(kIters,
                [&](std::int64_t i) {
                  benchmark::DoNotOptimize(MillisToMicros(
                      lut.AnalyticMillis(dists[static_cast<std::size_t>(i)])));
                }),
        NsPerOp(kIters, [&](std::int64_t i) {
          benchmark::DoNotOptimize(
              lut.TimeFor(dists[static_cast<std::size_t>(i)]));
        })));
  }

  // Rotation phase: the original two-modulo computation vs the rolling-
  // anchor kernel (one add and a conditional subtract on monotone clocks)
  // Disk::Service runs per media access. Identical pre-generated arrival
  // stream; both variants produce — and must agree on — the same phases.
  // The period is read through a volatile so it stays a runtime divisor,
  // as Disk's rotation_us_ member is; a constexpr period would let the
  // compiler strength-reduce the legacy modulos into multiply-shifts the
  // real hot loop never gets.
  {
    static volatile Micros rotation_src = 16667;  // ~3600 rpm in micros
    const Micros kRotation = rotation_src;
    const Micros kSectorTime = kRotation / 32;
    std::vector<Micros> gaps(kIters);
    std::vector<Micros> targets(kIters);
    {
      Rng rng(43);
      for (std::int64_t i = 0; i < kIters; ++i) {
        gaps[static_cast<std::size_t>(i)] =
            static_cast<Micros>(rng.NextBounded(3000));
        targets[static_cast<std::size_t>(i)] =
            static_cast<Micros>(rng.NextBounded(32)) * kSectorTime;
      }
    }
    // Each computed delay feeds the clock the next request sees, exactly
    // as Disk's busy-until feedback does; without it the CPU overlaps the
    // legacy divides across iterations the real loop must serialize.
    Micros legacy_clock = 0;
    Micros clock = 0, anchor_time = 0, anchor_offset = 0;
    metrics.push_back(Compare(
        "rotation_phase_kernel",
        NsPerOp(kIters,
                [&](std::int64_t i) {
                  legacy_clock += gaps[static_cast<std::size_t>(i)];
                  const Micros target =
                      targets[static_cast<std::size_t>(i)];
                  const Micros now_offset = legacy_clock % kRotation;
                  legacy_clock +=
                      (target - now_offset + kRotation) % kRotation;
                  benchmark::DoNotOptimize(legacy_clock);
                }),
        NsPerOp(kIters, [&](std::int64_t i) {
          clock += gaps[static_cast<std::size_t>(i)];
          const Micros target = targets[static_cast<std::size_t>(i)];
          Micros now_offset;
          const Micros delta = clock - anchor_time;
          if (delta < kRotation && delta >= 0) {
            now_offset = anchor_offset + delta;
            if (now_offset >= kRotation) now_offset -= kRotation;
          } else {
            now_offset = clock % kRotation;
          }
          anchor_time = clock;
          anchor_offset = now_offset;
          Micros rot = target - now_offset;
          if (target < now_offset) rot += kRotation;
          clock += rot;
          benchmark::DoNotOptimize(clock);
        })));
  }

  // Scheduler bulk-load: a 64-request submit burst merged into a standing
  // backlog by one InsertBatch sorted-run build vs the per-request ordered
  // inserts it replaces. Each iteration handles one request (batches are
  // loaded every 64th op, then the queue is drained back to depth).
  {
    constexpr std::size_t kBurst = 64;
    std::vector<sched::IoRequest> burst(kBurst);
    std::vector<SectorNo> burst_sectors(kIters);
    {
      Rng rng(47);
      for (SectorNo& s : burst_sectors) {
        s = static_cast<SectorNo>(rng.NextBounded(815 * 340));
      }
    }
    const auto key_of = [](const sched::IoRequest& r) {
      return static_cast<Cylinder>(r.sector / 340);
    };
    const auto load_burst = [&](std::int64_t i) {
      for (std::size_t b = 0; b < kBurst; ++b) {
        burst[b].sector = burst_sectors[static_cast<std::size_t>(
            (static_cast<std::size_t>(i) + b) % burst_sectors.size())];
        burst[b].sector_count = 16;
      }
    };
    sched::FlatRequestQueue loop_q, batch_q;
    // Standing backlog so merges displace real entries.
    for (std::int64_t i = 0; i < 192; ++i) {
      sched::IoRequest req;
      req.sector = burst_sectors[static_cast<std::size_t>(i)];
      req.sector_count = 16;
      loop_q.Insert(key_of(req), req);
      batch_q.Insert(key_of(req), req);
    }
    metrics.push_back(Compare(
        "queue_bulk_load64",
        NsPerOp(kIters,
                [&](std::int64_t i) {
                  if (i % static_cast<std::int64_t>(kBurst) != 0) return;
                  load_burst(i);
                  for (const sched::IoRequest& r : burst) {
                    loop_q.Insert(key_of(r), r);
                  }
                  for (std::size_t b = 0; b < kBurst; ++b) {
                    (void)loop_q.Take(loop_q.FirstLive());
                  }
                }),
        NsPerOp(kIters, [&](std::int64_t i) {
          if (i % static_cast<std::int64_t>(kBurst) != 0) return;
          load_burst(i);
          batch_q.InsertBatch(burst.data(), kBurst, key_of);
          for (std::size_t b = 0; b < kBurst; ++b) {
            (void)batch_q.Take(batch_q.FirstLive());
          }
        })));
  }

  bench::EmitJson("micro", metrics);
}

}  // namespace

int main(int argc, char** argv) {
  EmitBeforeAfterJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
