#ifndef ABR_DISK_DRIVE_SPEC_H_
#define ABR_DISK_DRIVE_SPEC_H_

#include <string>

#include "disk/geometry.h"
#include "disk/seek_model.h"

namespace abr::disk {

/// Full description of a drive model: geometry, seek behaviour and cache
/// features. Presets correspond to the two drives of the paper's Table 1.
struct DriveSpec {
  std::string name;
  Geometry geometry;
  SeekModel seek_model;

  /// Track-buffer (read-ahead cache) size in bytes; 0 disables the buffer.
  /// The Fujitsu M2266 has a 256 KB buffer, the Toshiba MK156F none.
  std::int64_t track_buffer_bytes = 0;

  /// Host transfer rate used when a read hits the track buffer, in MB/s.
  /// Approximates the synchronous SCSI-1 bus of the measured system.
  double buffer_transfer_mb_per_s = 2.5;

  /// Toshiba MK156F: 135 MB, 815 cylinders, 10 tracks/cyl, 34 sectors/track,
  /// 3600 RPM, no track buffer.
  static DriveSpec ToshibaMK156F();

  /// Fujitsu M2266: 1 GB, 1658 cylinders, 15 tracks/cyl, 85 sectors/track,
  /// 3600 RPM, 256 KB track buffer with read-ahead.
  static DriveSpec FujitsuM2266();

  /// Small synthetic drive for fast unit tests.
  static DriveSpec TestDrive(std::int32_t cylinders = 100,
                             std::int32_t tracks_per_cylinder = 4,
                             std::int32_t sectors_per_track = 32);
};

inline DriveSpec DriveSpec::ToshibaMK156F() {
  Geometry g;
  g.cylinders = 815;
  g.tracks_per_cylinder = 10;
  g.sectors_per_track = 34;
  g.rpm = 3600;
  g.bytes_per_sector = 512;
  return DriveSpec{"Toshiba MK156F", g, SeekModel::ToshibaMK156F(),
                   /*track_buffer_bytes=*/0};
}

inline DriveSpec DriveSpec::FujitsuM2266() {
  Geometry g;
  g.cylinders = 1658;
  g.tracks_per_cylinder = 15;
  g.sectors_per_track = 85;
  g.rpm = 3600;
  g.bytes_per_sector = 512;
  return DriveSpec{"Fujitsu M2266", g, SeekModel::FujitsuM2266(),
                   /*track_buffer_bytes=*/256 * 1024};
}

inline DriveSpec DriveSpec::TestDrive(std::int32_t cylinders,
                                      std::int32_t tracks_per_cylinder,
                                      std::int32_t sectors_per_track) {
  Geometry g;
  g.cylinders = cylinders;
  g.tracks_per_cylinder = tracks_per_cylinder;
  g.sectors_per_track = sectors_per_track;
  g.rpm = 3600;
  g.bytes_per_sector = 512;
  return DriveSpec{"TestDrive", g,
                   SeekModel::Linear(2.0, 0.05, cylinders - 1),
                   /*track_buffer_bytes=*/0};
}

}  // namespace abr::disk

#endif  // ABR_DISK_DRIVE_SPEC_H_
