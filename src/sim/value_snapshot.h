// Type-erased snapshots that hold one plain value.
//
// A layer that hands out opaque snapshots (net::PartitionBackend's
// RulesSnapshot, neat::SystemState) boxes a copy of the producer's State in
// a ValueSnapshot and unboxes it on restore with SnapshotValue. The unbox
// checks the dynamic type in every build type: restoring a snapshot into a
// producer of another type throws std::logic_error before anything is
// changed, instead of dereferencing null.

#ifndef SIM_VALUE_SNAPSHOT_H_
#define SIM_VALUE_SNAPSHOT_H_

#include <memory>
#include <stdexcept>
#include <utility>

namespace sim {

template <typename Base, typename T>
class ValueSnapshot final : public Base {
 public:
  explicit ValueSnapshot(T value) : value_(std::move(value)) {}
  const T& value() const { return value_; }

 private:
  T value_;
};

template <typename Base, typename T>
std::unique_ptr<Base> MakeValueSnapshot(T value) {
  return std::make_unique<ValueSnapshot<Base, T>>(std::move(value));
}

template <typename T, typename Base>
const T& SnapshotValue(const Base& snapshot) {
  const auto* boxed = dynamic_cast<const ValueSnapshot<Base, T>*>(&snapshot);
  if (boxed == nullptr) {
    throw std::logic_error("snapshot restored into a producer of another type");
  }
  return boxed->value();
}

}  // namespace sim

#endif  // SIM_VALUE_SNAPSHOT_H_
