// Small-buffer type-erased callable for the event hot path.
//
// `InplaceCallback` replaces `std::function<void()>` on the scheduling fast
// path: callables up to `kInlineBytes` are stored inline in the event
// record, so steady-state scheduling performs no heap allocation. Larger
// callables fall back to a single heap allocation, same as `std::function`
// would. The buffer is exactly the size of the hottest event shape, a port's
// delivery lambda capturing `this` plus a `net::Packet` by value (8 + 48 =
// 56 bytes); a whole `std::function` (32 bytes) fits too. With the ops
// pointer the callback is one 64 B cache line, and every pending event
// record is exactly that callback, so the buffer is no larger (DESIGN.md §7).
//
// Move-only by design: an event callback has exactly one owner (the event
// record, then the dispatch loop).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace amrt::sim {

class InplaceCallback {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  InplaceCallback() = default;
  InplaceCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InplaceCallback> &&
                                        !std::is_same_v<Fn, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace<Fn>(std::forward<F>(f));
  }

  InplaceCallback(InplaceCallback&& other) noexcept { steal(other); }
  InplaceCallback& operator=(InplaceCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InplaceCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  InplaceCallback(const InplaceCallback&) = delete;
  InplaceCallback& operator=(const InplaceCallback&) = delete;
  ~InplaceCallback() { reset(); }

  void operator()() { ops_->invoke(&storage_); }

  // Constructs `f` directly in this callback (inline buffer or heap cell),
  // replacing any held callable. The event queue uses this to build the
  // callable in its slab record with zero intermediate moves.
  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InplaceCallback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  void assign(F&& f) {
    reset();
    emplace<Fn>(std::forward<F>(f));
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the held callable (releasing captured state) and goes empty.
  // A null destroy op marks a trivially destructible callable (the common
  // case on the event path: captures of pointers and POD packets), letting
  // the per-event reset skip an indirect call to an empty destructor.
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  // True when the callable lives in the inline buffer (introspection for
  // tests; empty callbacks report false).
  [[nodiscard]] bool stores_inline() const { return ops_ != nullptr && ops_->inline_stored; }

  // True when a callable of type Fn is stored inline. Hot-path schedulers
  // static_assert it on their lambdas, so a capture that outgrows the
  // buffer fails the build instead of allocating per event.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
    bool inline_stored;
  };

  template <typename Fn, typename F>
  void emplace(F&& f) {
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(&storage_)) Fn(std::forward<F>(f));
      static constexpr Ops ops{
          [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
          [](void* dst, void* src) {
            Fn* from = std::launder(reinterpret_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          std::is_trivially_destructible_v<Fn>
              ? nullptr
              : +[](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
          true};
      ops_ = &ops;
    } else {
      ::new (static_cast<void*>(&storage_)) Fn*(new Fn(std::forward<F>(f)));
      static constexpr Ops ops{
          [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
          [](void* dst, void* src) {
            ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
          },
          [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); },
          false};
      ops_ = &ops;
    }
  }

  void steal(InplaceCallback& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace amrt::sim
