#include "placement/move_utility.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace abr::placement {

MoveUtilityModel::MoveUtilityModel(const disk::SeekModel* model,
                                   Cylinder center)
    : model_(model), center_(center) {
  assert(model != nullptr);
}

Micros MoveUtilityModel::SavingsPerReference(Cylinder home_cylinder) const {
  const std::int64_t distance =
      std::min<std::int64_t>(std::abs(home_cylinder - center_),
                             model_->max_distance());
  return model_->TimeFor(distance);
}

Micros MoveUtilityModel::MoveCost(std::int32_t chain_ios) const {
  return static_cast<Micros>(chain_ios) *
         model_->TimeFor(model_->max_distance() / 3);
}

bool MoveUtilityModel::AdmitCopy(std::int64_t refs, Cylinder home_cylinder,
                                 double threshold,
                                 std::int32_t chain_ios) const {
  const double savings =
      static_cast<double>(refs) *
      static_cast<double>(SavingsPerReference(home_cylinder));
  return savings >= threshold * static_cast<double>(MoveCost(chain_ios));
}

Micros MoveUtilityModel::ShuffleCost(std::int32_t chain_ios,
                                     Cylinder from_cylinder,
                                     Cylinder to_cylinder) const {
  const std::int64_t hop = std::max<std::int64_t>(
      1, std::min<std::int64_t>(std::abs(to_cylinder - from_cylinder),
                                model_->max_distance()));
  return static_cast<Micros>(chain_ios) * model_->TimeFor(hop);
}

bool MoveUtilityModel::AdmitShuffle(std::int64_t refs, Cylinder from_cylinder,
                                    Cylinder to_cylinder, double threshold,
                                    std::int32_t chain_ios) const {
  const Micros from_cost = SavingsPerReference(from_cylinder);
  const Micros to_cost = SavingsPerReference(to_cylinder);
  if (to_cost >= from_cost) return false;  // moving outward buys nothing
  const double savings =
      static_cast<double>(refs) * static_cast<double>(from_cost - to_cost);
  return savings >= threshold *
                        static_cast<double>(ShuffleCost(
                            chain_ios, from_cylinder, to_cylinder));
}

void UtilityThreshold::Update(std::int64_t admitted, std::int64_t executed,
                              std::int64_t rejected) {
  if (admitted > 0 &&
      static_cast<double>(executed) <
          kLowWater * static_cast<double>(admitted)) {
    value_ = std::min(value_ * kStep, kMax);
  } else if (executed >= admitted && rejected > 0) {
    value_ = std::max(value_ / kStep, kMin);
  }
  // Deadband: a finished plan with nothing rejected, or a nearly finished
  // one, holds the threshold still.
}

}  // namespace abr::placement
