#include "frapp/core/designer.h"

#include <sstream>

namespace frapp {
namespace core {

std::string FrappDesign::Summary() const {
  std::ostringstream os;
  os << "FRAPP design\n"
     << "  gamma                : " << gamma << "\n"
     << "  x = 1/(gamma+n-1)    : " << x << "\n"
     << "  mechanism            : " << (mechanism ? mechanism->name() : "?") << "\n"
     << "  alpha                : " << alpha << "\n"
     << "  condition number     : " << condition_number << "\n"
     << "  posterior @ rho1     : ";
  if (alpha == 0.0) {
    os << posterior.center;
  } else {
    os << "[" << posterior.lower << ", " << posterior.upper << "] (center "
       << posterior.center << ")";
  }
  os << "\n";
  return os.str();
}

StatusOr<FrappDesign> DesignMechanism(const data::CategoricalSchema& schema,
                                      const DesignOptions& options) {
  if (options.randomization_fraction < 0.0 || options.randomization_fraction > 1.0) {
    return Status::InvalidArgument("randomization fraction must be in [0, 1]");
  }

  FrappDesign design;
  // Step 1: privacy requirement -> gamma -> optimal deterministic matrix.
  FRAPP_ASSIGN_OR_RETURN(design.gamma, GammaFromRequirement(options.requirement));
  const uint64_t n = schema.DomainSize();
  if (n < 2) return Status::InvalidArgument("domain must have >= 2 records");
  design.x = 1.0 / (design.gamma + static_cast<double>(n) - 1.0);
  design.condition_number = MinimumConditionNumberBound(design.gamma, n);
  design.alpha = options.randomization_fraction * design.gamma * design.x;

  // Step 2 (optional): randomize the matrix.
  if (design.alpha == 0.0) {
    FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<DetGdMechanism> mechanism,
                           DetGdMechanism::Create(schema, design.gamma));
    design.mechanism = std::move(mechanism);
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        std::unique_ptr<RanGdMechanism> mechanism,
        RanGdMechanism::Create(schema, design.gamma, design.alpha,
                               options.randomization_kind));
    design.mechanism = std::move(mechanism);
  }

  FRAPP_ASSIGN_OR_RETURN(
      design.posterior,
      RandomizedPosteriorRange(options.requirement.rho1, design.gamma, n,
                               design.alpha));
  return design;
}

StatusOr<data::CategoricalTable> FrappDesign::Perturb(
    const data::CategoricalTable& original, random::Pcg64& rng) const {
  if (alpha == 0.0) {
    return static_cast<const DetGdMechanism&>(*mechanism).perturber().Perturb(
        original, rng);
  }
  return static_cast<const RanGdMechanism&>(*mechanism).perturber().Perturb(
      original, rng);
}

}  // namespace core
}  // namespace frapp
