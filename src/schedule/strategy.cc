/**
 * @file
 * Strategy names and properties.
 */

#include "strategy.hh"

#include "common/logging.hh"

namespace transfusion::schedule
{

std::string
toString(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::Unfused:          return "Unfused";
      case StrategyKind::Flat:             return "FLAT";
      case StrategyKind::FuseMax:          return "FuseMax";
      case StrategyKind::FuseMaxLayerFuse: return "FuseMax+LayerFuse";
      case StrategyKind::TransFusion:      return "TransFusion";
    }
    tf_panic("unknown StrategyKind");
}

std::vector<StrategyKind>
allStrategies()
{
    return { StrategyKind::Unfused, StrategyKind::Flat,
             StrategyKind::FuseMax, StrategyKind::FuseMaxLayerFuse,
             StrategyKind::TransFusion };
}

bool
usesLayerFusion(StrategyKind kind)
{
    return kind == StrategyKind::FuseMaxLayerFuse
        || kind == StrategyKind::TransFusion;
}

StrategyNames::StrategyNames(std::string_view prefix)
{
    const std::vector<StrategyKind> kinds = allStrategies();
    names_.resize(kinds.size());
    for (const StrategyKind kind : kinds)
        names_[static_cast<std::size_t>(kind)] =
            std::string(prefix) + toString(kind);
}

} // namespace transfusion::schedule
