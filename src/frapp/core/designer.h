// The two-step FRAPP design workflow proposed in the paper's introduction:
//
//   "First, given a user-desired level of privacy, identifying the
//    deterministic values of the FRAPP parameters that both guarantee this
//    privacy and also maximize the accuracy; and then, (optionally)
//    randomizing these parameters to obtain even better privacy guarantees
//    at a minimal cost in accuracy."
//
// Step 1 derives gamma from (rho1, rho2) and instantiates the
// condition-number-optimal gamma-diagonal mechanism. Step 2 optionally
// randomizes the matrix with half-width alpha = fraction * gamma * x.

#ifndef FRAPP_CORE_DESIGNER_H_
#define FRAPP_CORE_DESIGNER_H_

#include <memory>
#include <string>

#include "frapp/common/statusor.h"
#include "frapp/core/mechanism.h"
#include "frapp/core/privacy.h"

namespace frapp {
namespace core {

/// Knobs for DesignMechanism.
struct DesignOptions {
  /// Strict privacy requirement; the paper's running example is (5%, 50%).
  PrivacyRequirement requirement{0.05, 0.50};

  /// Randomization half-width as a fraction of gamma*x in [0, 1];
  /// 0 selects the deterministic DET-GD mechanism.
  double randomization_fraction = 0.0;

  /// Distribution family for the randomization parameter.
  random::RandomizationKind randomization_kind =
      random::RandomizationKind::kUniform;
};

/// A fully configured design and its privacy/accuracy characteristics.
struct FrappDesign {
  double gamma = 0.0;          ///< amplification bound from the requirement
  double x = 0.0;              ///< gamma-diagonal off-diagonal entry
  double alpha = 0.0;          ///< randomization half-width (0 = DET-GD)
  double condition_number = 0; ///< constant reconstruction condition number

  /// Posterior window for a property at the rho1 prior: for DET-GD the three
  /// fields coincide at rho2; for RAN-GD they bracket it.
  PosteriorRange posterior;

  /// The designed mechanism: DetGdMechanism when alpha == 0, else
  /// RanGdMechanism.
  std::unique_ptr<Mechanism> mechanism;

  /// Multi-line human-readable description of the design.
  std::string Summary() const;
};

/// Runs the two-step workflow for `schema`. Fails when the requirement is
/// malformed or the randomization fraction is outside [0, 1] (or would make
/// matrix entries negative on very small domains).
StatusOr<FrappDesign> DesignMechanism(const data::CategoricalSchema& schema,
                                      const DesignOptions& options);

}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_DESIGNER_H_
