/**
 * @file
 * The five execution systems compared in Sec. 6: the Unfused
 * baseline, FLAT, FuseMax, the FuseMax+LayerFuse ablation, and
 * TransFusion itself.
 */

#ifndef TRANSFUSION_SCHEDULE_STRATEGY_HH
#define TRANSFUSION_SCHEDULE_STRATEGY_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace transfusion::schedule
{

/** Evaluated system. */
enum class StrategyKind
{
    Unfused,          ///< phase-by-phase, DRAM between phases
    Flat,             ///< FLAT: fused attention, rest unfused
    FuseMax,          ///< FuseMax: pipelined fused attention
    FuseMaxLayerFuse, ///< ablation: FuseMax + inter-layer fusion
    TransFusion,      ///< full system: LayerFuse + DPipe + TileSeek
};

/** Display name matching the paper's legends. */
std::string toString(StrategyKind kind);

/** All strategies, baseline first. */
std::vector<StrategyKind> allStrategies();

/** Whether the strategy fuses the whole layer stack (Sec. 3.2). */
bool usesLayerFusion(StrategyKind kind);

/**
 * `prefix + toString(kind)` for every strategy, built once: hot
 * call sites hold one in a function-local static and name their
 * trace spans from it instead of concatenating per call.
 */
class StrategyNames
{
  public:
    explicit StrategyNames(std::string_view prefix);
    const std::string &operator[](StrategyKind kind) const
    {
        return names_[static_cast<std::size_t>(kind)];
    }

  private:
    std::vector<std::string> names_;
};

} // namespace transfusion::schedule

#endif // TRANSFUSION_SCHEDULE_STRATEGY_HH
