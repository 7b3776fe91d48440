#include "baselines/file_temperature.h"

#include <algorithm>
#include <unordered_map>

#include "placement/reserved_region.h"

namespace abr::baselines {

std::vector<FileTemperatureArranger::FileHeat>
FileTemperatureArranger::RankFiles(
    const fs::Ffs& fs, const std::vector<analyzer::HotBlock>& block_counts) {
  std::unordered_map<fs::FileId, std::int64_t> refs;
  for (const analyzer::HotBlock& hb : block_counts) {
    StatusOr<fs::FileId> owner = fs.OwnerOf(hb.id.block);
    if (owner.ok()) refs[*owner] += hb.count;
  }
  std::vector<FileHeat> ranked;
  ranked.reserve(refs.size());
  for (const auto& [file, count] : refs) {
    StatusOr<std::int64_t> size = fs.FileSize(file);
    if (!size.ok() || *size == 0) continue;
    FileHeat heat;
    heat.file = file;
    heat.references = count;
    heat.blocks = *size;
    heat.temperature =
        static_cast<double>(count) / static_cast<double>(*size);
    ranked.push_back(heat);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const FileHeat& a, const FileHeat& b) {
              if (a.temperature != b.temperature) {
                return a.temperature > b.temperature;
              }
              return a.file < b.file;  // deterministic ties
            });
  return ranked;
}

StatusOr<placement::ArrangeResult> FileTemperatureArranger::Rearrange(
    driver::AdaptiveDriver& driver, const fs::Ffs& fs, std::int32_t device,
    const std::vector<analyzer::HotBlock>& block_counts) const {
  if (!driver.label().rearranged()) {
    return Status::FailedPrecondition("disk is not set up for rearrangement");
  }
  placement::ArrangeResult result;
  const placement::PassLedger ledger = placement::PassLedger::Open(driver);

  result.cleaned = driver.block_table().size();
  ABR_RETURN_IF_ERROR(driver.IoctlClean());
  driver.Drain();

  const placement::ReservedRegion region =
      placement::ReservedRegion::FromDriver(driver);
  const std::vector<std::int32_t> slot_order = region.OrganPipeSlotOrder();
  std::size_t next_slot = 0;

  for (const FileHeat& heat : RankFiles(fs, block_counts)) {
    if (next_slot >= slot_order.size()) break;
    // Whole file or nothing: iPcress moves files, not blocks. Stop at the
    // first file that no longer fits.
    if (static_cast<std::size_t>(heat.blocks) >
        slot_order.size() - next_slot) {
      continue;  // try a (smaller) cooler file instead
    }
    for (std::int64_t i = 0; i < heat.blocks; ++i) {
      StatusOr<BlockNo> block = fs.FileBlock(heat.file, i);
      if (!block.ok()) return block.status();
      StatusOr<SectorNo> original = placement::BlockArranger::OriginalSector(
          driver, analyzer::BlockId{device, *block});
      if (!original.ok()) {
        ++result.skipped;  // straddling block: ineligible
        continue;
      }
      ABR_RETURN_IF_ERROR(driver.IoctlCopyBlock(
          *original, region.SlotSector(slot_order[next_slot++])));
      driver.Drain();
      ++result.copied;
    }
  }

  return ledger.Close(driver, result);
}

}  // namespace abr::baselines
