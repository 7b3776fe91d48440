// Differential tests for the hot seek/rotation kernels.
//
// The seek lookup table must be bit-identical to the retained analytic
// evaluator (SeekModel::AnalyticMillis) at every cylinder distance of
// both paper drives and of the test drive's linear model. The
// strength-reduced rotation kernel in
// Disk::Service must be integer-identical to the original double-modulo
// phase computation for every arrival pattern, including the anchor
// fallback paths (backward time, jumps longer than one rotation).

#include "disk/disk.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "disk/drive_spec.h"
#include "disk/seek_model.h"
#include "util/rng.h"

namespace abr::disk {
namespace {

// --- Seek LUT vs analytic evaluator ----------------------------------------

void ExpectLutMatchesAnalytic(const SeekModel& model) {
  for (std::int64_t d = 0; d <= model.max_distance(); ++d) {
    // Bit-identical, not approximately equal: the table entry was filled
    // by the very same evaluation the reference evaluator performs per
    // call, and rounded to microseconds the same way.
    const double ms = model.AnalyticMillis(d);
    EXPECT_EQ(model.Millis(d), ms) << "d=" << d;
    EXPECT_EQ(model.TimeFor(d), MillisToMicros(ms)) << "d=" << d;
  }
}

TEST(SeekKernelDiffTest, ToshibaLutMatchesAnalyticEverywhere) {
  ExpectLutMatchesAnalytic(SeekModel::ToshibaMK156F());
}

TEST(SeekKernelDiffTest, FujitsuLutMatchesAnalyticEverywhere) {
  ExpectLutMatchesAnalytic(SeekModel::FujitsuM2266());
}

TEST(SeekKernelDiffTest, TestDriveLutMatchesAnalyticEverywhere) {
  const DriveSpec spec = DriveSpec::TestDrive();
  ASSERT_EQ(spec.seek_model.max_distance(), spec.geometry.cylinders - 1);
  ExpectLutMatchesAnalytic(spec.seek_model);
}

TEST(SeekKernelDiffTest, AnalyticZeroDistanceStaysFree) {
  // The raw curves are not zero at d=0 (Linear returns its base, the
  // Table 1 fits take log 0); the evaluator must apply the same
  // zero-length override as the table.
  for (const SeekModel& m :
       {SeekModel::ToshibaMK156F(), SeekModel::FujitsuM2266(),
        DriveSpec::TestDrive().seek_model}) {
    EXPECT_DOUBLE_EQ(m.AnalyticMillis(0), 0.0);
    EXPECT_DOUBLE_EQ(m.Millis(0), 0.0);
    EXPECT_EQ(m.TimeFor(0), 0);
  }
}

// --- Rotation kernel vs double-modulo oracle -------------------------------

DriveSpec Spec() { return DriveSpec::TestDrive(100, 4, 32); }

/// The pre-kernel rotation computation: platter phase from an absolute
/// modulo of the arrival-at-cylinder time, then a second modulo to wrap
/// the offset difference.
Micros OracleRotation(const Geometry& g, SectorNo sector, Micros at) {
  const Micros rotation = g.rotation_time();
  const Micros now_offset = at % rotation;
  const Micros target_offset =
      static_cast<Micros>(g.SectorInTrack(sector)) * g.sector_time();
  return (target_offset - now_offset + rotation) % rotation;
}

/// Services `sector` at `start` on the kernel disk and checks the rotation
/// against the oracle formula (which needs the seek the disk just charged).
void ExpectOracleRotation(Disk& d, const Geometry& g, SectorNo sector,
                          std::int64_t count, Micros start) {
  const ServiceBreakdown b = d.Service(sector, count, /*is_read=*/true, start);
  EXPECT_EQ(b.rotation, OracleRotation(g, sector, start + b.seek))
      << "sector=" << sector << " start=" << start;
}

TEST(RotationKernelDiffTest, MonotoneTrafficMatchesOracle) {
  Disk d(Spec());
  const Geometry& g = d.geometry();
  Rng rng(0x5EED);
  Micros now = 0;
  for (int i = 0; i < 4000; ++i) {
    // Small forward steps keep the rolling anchor on its fast path.
    now += static_cast<Micros>(rng.NextBounded(3000));
    const SectorNo sector =
        static_cast<SectorNo>(rng.NextBounded(
            static_cast<std::uint64_t>(g.total_sectors() - 16)));
    ExpectOracleRotation(d, g, sector, 1 + (i % 8), now);
  }
}

TEST(RotationKernelDiffTest, LongGapsForceReanchor) {
  Disk d(Spec());
  const Geometry& g = d.geometry();
  const Micros rotation = g.rotation_time();
  Rng rng(0xA5);
  Micros now = 0;
  for (int i = 0; i < 500; ++i) {
    // Jumps of several rotations: delta >= rotation, so the kernel must
    // fall back to the real modulo and re-anchor.
    now += rotation * static_cast<Micros>(1 + rng.NextBounded(7)) +
           static_cast<Micros>(rng.NextBounded(1000));
    const SectorNo sector =
        static_cast<SectorNo>(rng.NextBounded(
            static_cast<std::uint64_t>(g.total_sectors() - 16)));
    ExpectOracleRotation(d, g, sector, 4, now);
  }
}

TEST(RotationKernelDiffTest, BackwardTimeFallsBackToModulo) {
  // The disk API does not require monotone start times; the anchor's
  // delta < 0 guard must route such calls through the exact modulo.
  Disk d(Spec());
  const Geometry& g = d.geometry();
  ExpectOracleRotation(d, g, /*sector=*/320, 4, /*start=*/500000);
  ExpectOracleRotation(d, g, /*sector=*/320, 4, /*start=*/1234);
  ExpectOracleRotation(d, g, /*sector=*/4096, 4, /*start=*/999);
}

TEST(RotationKernelDiffTest, OffsetWrapAroundIndexZero) {
  // Target offset below the current phase: the conditional add must wrap
  // exactly like the old (+ rotation) % rotation did.
  Disk d(Spec());
  const Geometry& g = d.geometry();
  const Micros sector_time = g.sector_time();
  // Phase the platter just past sector 5, then ask for sector 2 of the
  // same track: target_offset < now_offset.
  ExpectOracleRotation(d, g, /*sector=*/2, 1, /*start=*/5 * sector_time + 7);
}

TEST(RotationKernelDiffTest, ZeroDistanceSeekAndSameSectorReread) {
  Disk d(Spec());
  const Geometry& g = d.geometry();
  // Land on cylinder 10, then re-read the same sector with no seek: the
  // rotation charged must be a full revolution minus the transfer the
  // head just finished, exactly as the oracle computes it.
  ExpectOracleRotation(d, g, /*sector=*/10 * 128, 1, /*start=*/0);
  const Micros later = 2 * g.rotation_time() + 5;
  ExpectOracleRotation(d, g, /*sector=*/10 * 128, 1, later);
  // Zero-rotation case: arrive exactly when the target sector starts.
  const Micros aligned = 8 * g.rotation_time();
  const ServiceBreakdown b =
      d.Service(10 * 128, 1, /*is_read=*/true, aligned);
  EXPECT_EQ(b.seek, 0);
  EXPECT_EQ(b.rotation, 0);
}

TEST(RotationKernelDiffTest, AnchorBoundaryDeltaEqualsRotation) {
  Disk d(Spec());
  const Geometry& g = d.geometry();
  const Micros rotation = g.rotation_time();
  // Anchor at t, then arrive at exactly t + rotation (delta == rotation,
  // one past the fast-path guard) and at t + rotation - 1 (last fast-path
  // delta). Both must match the oracle.
  ExpectOracleRotation(d, g, /*sector=*/64, 1, /*start=*/1000);
  const Micros anchor = 1000;  // seek was 0: cylinder 0 both times
  ExpectOracleRotation(d, g, /*sector=*/64, 1, anchor + rotation - 1);
  ExpectOracleRotation(d, g, /*sector=*/64, 1,
                       anchor + rotation - 1 + rotation);
}

}  // namespace
}  // namespace abr::disk
