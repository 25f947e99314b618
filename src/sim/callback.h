// A copyable, type-erased `void()` for simulator events.
//
// sim::Callback does what std::function<void()> does for the event queue,
// but stores any closure of up to kInlineSize bytes (pointer-aligned, with
// a non-throwing move) in place, next to one pointer to a per-type table of
// operations. std::function's small buffer holds 16 bytes of trivially
// copyable state, so the two hot closures — a network delivery (a Network*
// plus an Envelope) and a process tick (which itself owns a std::function) —
// each cost it a heap allocation per event. Larger closures, and closures
// whose move can throw, are boxed on the heap, as std::function boxes them.
//
// A moved-from Callback is empty. Invoking an empty one is undefined (the
// simulator never does).

#ifndef SIM_CALLBACK_H_
#define SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

class Callback {
 public:
  static constexpr size_t kInlineSize = 56;

  // True when a closure of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool kStoredInline = sizeof(F) <= kInlineSize &&
                                        alignof(F) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<F>;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
    }
    ops_ = &kOps<D>;
  }

  Callback(const Callback& other) {
    if (other.ops_ != nullptr) {
      other.ops_->copy(other.storage_, storage_);
      ops_ = other.ops_;
    }
  }

  Callback(Callback&& other) noexcept { Take(other); }

  Callback& operator=(const Callback& other) {
    if (this != &other) {
      Callback copy(other);
      Reset();
      Take(copy);
    }
    return *this;
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      Take(other);
    }
    return *this;
  }

  ~Callback() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Runs the closure. Requires a non-empty callback.
  void operator()() { ops_->invoke(storage_); }

  // Destroys the closure, leaving the callback empty.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*copy)(const void* from, void* to);
    // Move-constructs into `to` and destroys `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static D& Target(void* self) {
    if constexpr (kStoredInline<D>) {
      return *std::launder(static_cast<D*>(self));
    } else {
      return **std::launder(static_cast<D**>(self));
    }
  }

  template <typename D>
  static constexpr Ops kOps = {
      [](void* self) { Target<D>(self)(); },
      [](const void* from, void* to) {
        const D& source = Target<D>(const_cast<void*>(from));
        if constexpr (kStoredInline<D>) {
          ::new (to) D(source);
        } else {
          ::new (to) D*(new D(source));
        }
      },
      [](void* from, void* to) noexcept {
        if constexpr (kStoredInline<D>) {
          D& source = Target<D>(from);
          ::new (to) D(std::move(source));
          source.~D();
        } else {
          ::new (to) D*(*std::launder(static_cast<D**>(from)));
        }
      },
      [](void* self) noexcept {
        if constexpr (kStoredInline<D>) {
          Target<D>(self).~D();
        } else {
          delete &Target<D>(self);
        }
      },
  };

  // Moves `other`'s closure in (this must be empty), leaving `other` empty.
  void Take(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(Callback) == 64, "a Callback is its inline buffer plus one pointer");

}  // namespace sim

#endif  // SIM_CALLBACK_H_
