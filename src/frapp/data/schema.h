// Categorical schemas (paper Section 2 data model).
//
// A database U has M categorical attributes; attribute j has finite domain
// S_U^j. The joint domain S_U = prod_j S_U^j is mapped to the index set
// I_U = {0, ..., |S_U| - 1} (the paper uses 1-based indices; we use 0-based).

#ifndef FRAPP_DATA_SCHEMA_H_
#define FRAPP_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"

namespace frapp {
namespace data {

/// One categorical attribute: a name and its ordered list of category labels.
struct Attribute {
  std::string name;
  std::vector<std::string> categories;

  size_t cardinality() const { return categories.size(); }
};

/// An ordered list of categorical attributes. Immutable after construction.
class CategoricalSchema {
 public:
  /// Validates and builds a schema: attribute names must be unique and
  /// non-empty; every attribute needs >= 1 category; category labels must be
  /// unique within an attribute.
  static StatusOr<CategoricalSchema> Create(std::vector<Attribute> attributes);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t j) const { return attributes_[j]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Cardinality |S_U^j| of attribute j.
  size_t Cardinality(size_t j) const { return attributes_[j].cardinality(); }

  /// Cardinalities of every attribute, in attribute order.
  std::vector<size_t> Cardinalities() const;

  /// Joint domain size |S_U| = prod_j |S_U^j|. Wraps modulo 2^64 when the
  /// product does not fit; the gamma-diagonal perturbers reject such schemas
  /// (see core::GammaPerturbPlan::Create).
  uint64_t DomainSize() const;

  /// Sum of cardinalities (the M_b of the paper's boolean mapping).
  size_t TotalCategories() const;

  /// Index of the attribute with this name; NotFound otherwise.
  StatusOr<size_t> AttributeIndex(const std::string& name) const;

  /// Index of `category` within attribute j; NotFound otherwise.
  StatusOr<size_t> CategoryIndex(size_t j, const std::string& category) const;

 private:
  explicit CategoricalSchema(std::vector<Attribute> attributes)
      : attributes_(std::move(attributes)) {}

  std::vector<Attribute> attributes_;
};

}  // namespace data
}  // namespace frapp

#endif  // FRAPP_DATA_SCHEMA_H_
