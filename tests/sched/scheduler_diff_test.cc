// Differential tests: the flat sorted-run schedulers against their
// multimap oracles (scheduler_ref.h, the pre-rewrite implementations).
// Both sides consume identical randomized interleavings of enqueues and
// dequeues — with duplicate cylinders, moving heads, and empty-queue
// probes — and must emit identical service orders throughout.

#include "oracles/scheduler_ref.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>

#include "sched/scheduler.h"
#include "util/rng.h"

namespace abr::sched {
namespace {

constexpr std::int64_t kSpc = 128;  // sectors per cylinder in these tests
constexpr Cylinder kCylinders = 815;  // Toshiba geometry's cylinder count

IoRequest Req(std::int64_t id, Cylinder cylinder) {
  IoRequest r;
  r.id = id;
  r.sector = static_cast<SectorNo>(cylinder) * kSpc;
  r.sector_count = 16;
  return r;
}

/// Feeds the same randomized interleaving to the production scheduler and
/// its oracle; every dequeue must return the same request id (or agree the
/// queue is empty). `duplicate_every` forces repeated cylinder keys so the
/// FIFO-among-equals tie-break is exercised, not just the ordering.
void RunInterleaving(SchedulerKind kind, std::uint64_t seed,
                     std::int64_t steps, std::uint64_t duplicate_every) {
  std::unique_ptr<Scheduler> flat = MakeScheduler(kind, kSpc);
  std::unique_ptr<Scheduler> ref = MakeRefScheduler(kind, kSpc);
  Rng rng(seed);
  Cylinder head = 0;
  Cylinder last_cylinder = 0;
  std::int64_t next_id = 1;
  for (std::int64_t step = 0; step < steps; ++step) {
    // Bias toward enqueue so the queues reach interesting depths, but keep
    // draining often enough that both directions of every policy run.
    if (rng.NextBounded(5) < 3) {
      const Cylinder cylinder =
          duplicate_every != 0 && rng.NextBounded(duplicate_every) == 0
              ? last_cylinder
              : static_cast<Cylinder>(rng.NextBounded(kCylinders));
      last_cylinder = cylinder;
      const IoRequest request = Req(next_id++, cylinder);
      flat->Enqueue(request);
      ref->Enqueue(request);
    } else {
      const std::optional<IoRequest> got = flat->Dequeue(head);
      const std::optional<IoRequest> want = ref->Dequeue(head);
      ASSERT_EQ(got.has_value(), want.has_value()) << "at step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->id, want->id) << "at step " << step;
        head = static_cast<Cylinder>(got->sector / kSpc);
      }
    }
    ASSERT_EQ(flat->size(), ref->size()) << "at step " << step;
  }
  // Drain both to empty: the tail order must agree too, and both must
  // report empty at the same probe.
  while (true) {
    const std::optional<IoRequest> got = flat->Dequeue(head);
    const std::optional<IoRequest> want = ref->Dequeue(head);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got.has_value()) break;
    ASSERT_EQ(got->id, want->id);
    head = static_cast<Cylinder>(got->sector / kSpc);
  }
  EXPECT_EQ(flat->size(), 0u);
}

class SchedulerDiffTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerDiffTest, RandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunInterleaving(GetParam(), seed, 4000, /*duplicate_every=*/4);
  }
}

TEST_P(SchedulerDiffTest, AllDuplicateCylinders) {
  // Every enqueue reuses the previous cylinder: long runs of equal keys,
  // so the service order is decided purely by the FIFO tie-break.
  RunInterleaving(GetParam(), /*seed=*/99, 2000, /*duplicate_every=*/1);
}

TEST_P(SchedulerDiffTest, DeepQueueTombstonePath) {
  // Enough backlog that the flat queue's lazy-deletion branch (tombstone
  // plus compaction) runs, not just the near-tail in-place erase.
  std::unique_ptr<Scheduler> flat = MakeScheduler(GetParam(), kSpc);
  std::unique_ptr<Scheduler> ref = MakeRefScheduler(GetParam(), kSpc);
  Rng rng(7);
  for (std::int64_t id = 1; id <= 3000; ++id) {
    const IoRequest request =
        Req(id, static_cast<Cylinder>(rng.NextBounded(kCylinders)));
    flat->Enqueue(request);
    ref->Enqueue(request);
  }
  Cylinder head = 0;
  while (flat->size() > 0) {
    const std::optional<IoRequest> got = flat->Dequeue(head);
    const std::optional<IoRequest> want = ref->Dequeue(head);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    ASSERT_EQ(got->id, want->id);
    head = static_cast<Cylinder>(got->sector / kSpc);
  }
  EXPECT_FALSE(ref->Dequeue(head).has_value());
}

TEST_P(SchedulerDiffTest, EmptyQueueEdges) {
  std::unique_ptr<Scheduler> flat = MakeScheduler(GetParam(), kSpc);
  std::unique_ptr<Scheduler> ref = MakeRefScheduler(GetParam(), kSpc);
  EXPECT_FALSE(flat->Dequeue(0).has_value());
  EXPECT_FALSE(ref->Dequeue(0).has_value());
  // Fill/drain cycles across empty: state carried over an empty queue
  // (SCAN's sweep direction) must match, as must slab-slot recycling.
  Cylinder head = 400;
  std::int64_t next_id = 1;
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (Cylinder c : {Cylinder{700}, Cylinder{100}, Cylinder{100},
                       Cylinder{400}, Cylinder{0}, Cylinder{814}}) {
      const IoRequest request = Req(next_id++, c);
      flat->Enqueue(request);
      ref->Enqueue(request);
    }
    while (flat->size() > 0) {
      const std::optional<IoRequest> got = flat->Dequeue(head);
      const std::optional<IoRequest> want = ref->Dequeue(head);
      ASSERT_TRUE(got.has_value() && want.has_value());
      ASSERT_EQ(got->id, want->id);
      head = static_cast<Cylinder>(got->sector / kSpc);
    }
    EXPECT_FALSE(flat->Dequeue(head).has_value());
    EXPECT_FALSE(ref->Dequeue(head).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SchedulerDiffTest,
                         ::testing::Values(SchedulerKind::kSstf,
                                           SchedulerKind::kScan,
                                           SchedulerKind::kCLook),
                         [](const auto& info) {
                           switch (info.param) {
                             case SchedulerKind::kSstf:
                               return "Sstf";
                             case SchedulerKind::kScan:
                               return "Scan";
                             default:
                               return "CLook";
                           }
                         });

}  // namespace
}  // namespace abr::sched
