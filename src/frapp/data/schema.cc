#include "frapp/data/schema.h"

#include <unordered_set>

namespace frapp {
namespace data {

StatusOr<CategoricalSchema> CategoricalSchema::Create(
    std::vector<Attribute> attributes) {
  if (attributes.empty()) {
    return Status::InvalidArgument("schema needs at least one attribute");
  }
  std::unordered_set<std::string> names;
  for (const Attribute& attr : attributes) {
    if (attr.name.empty()) {
      return Status::InvalidArgument("attribute name must be non-empty");
    }
    if (!names.insert(attr.name).second) {
      return Status::InvalidArgument("duplicate attribute name: " + attr.name);
    }
    if (attr.categories.empty()) {
      return Status::InvalidArgument("attribute '" + attr.name +
                                     "' needs at least one category");
    }
    std::unordered_set<std::string> cats;
    for (const std::string& c : attr.categories) {
      if (!cats.insert(c).second) {
        return Status::InvalidArgument("duplicate category '" + c +
                                       "' in attribute '" + attr.name + "'");
      }
    }
  }
  return CategoricalSchema(std::move(attributes));
}

std::vector<size_t> CategoricalSchema::Cardinalities() const {
  std::vector<size_t> cardinalities(attributes_.size());
  for (size_t j = 0; j < attributes_.size(); ++j) {
    cardinalities[j] = attributes_[j].cardinality();
  }
  return cardinalities;
}

uint64_t CategoricalSchema::DomainSize() const {
  uint64_t size = 1;
  for (const Attribute& attr : attributes_) {
    size *= static_cast<uint64_t>(attr.cardinality());
  }
  return size;
}

size_t CategoricalSchema::TotalCategories() const {
  size_t total = 0;
  for (const Attribute& attr : attributes_) total += attr.cardinality();
  return total;
}

StatusOr<size_t> CategoricalSchema::AttributeIndex(const std::string& name) const {
  for (size_t j = 0; j < attributes_.size(); ++j) {
    if (attributes_[j].name == name) return j;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

StatusOr<size_t> CategoricalSchema::CategoryIndex(size_t j,
                                                  const std::string& category) const {
  if (j >= attributes_.size()) {
    return Status::OutOfRange("attribute index out of range");
  }
  const Attribute& attr = attributes_[j];
  for (size_t c = 0; c < attr.categories.size(); ++c) {
    if (attr.categories[c] == category) return c;
  }
  return Status::NotFound("attribute '" + attr.name + "' has no category '" +
                          category + "'");
}

}  // namespace data
}  // namespace frapp
